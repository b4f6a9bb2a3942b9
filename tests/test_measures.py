"""Unit tests for MHS/MHP — including the paper's own Table 2 numbers."""

import numpy as np
import pytest

from repro.core import (
    GeometricPMF,
    PoissonPMF,
    UniformPMF,
    h_matrix,
    h_matrix_v_side,
    mhp_matrix,
    mhs_matrix,
    mhs_matrix_v_side,
    path_weight_matrix,
)
from repro.datasets import figure1_graph, two_cliques
from repro.graph import BipartiteGraph


class TestPathWeightMatrix:
    def test_ell_zero_is_identity(self, figure1):
        np.testing.assert_array_equal(path_weight_matrix(figure1, 0), np.eye(4))

    def test_ell_one_counts_two_hop_paths(self):
        # u0 - v0 - u1: one length-2 path of weight 1.
        graph = BipartiteGraph.from_dense([[1.0], [1.0]])
        q2 = path_weight_matrix(graph, 1)
        assert q2[0, 1] == pytest.approx(1.0)
        assert q2[0, 0] == pytest.approx(1.0)

    def test_path_weights_multiply(self):
        graph = BipartiteGraph.from_dense([[2.0], [3.0]])
        q2 = path_weight_matrix(graph, 1)
        assert q2[0, 1] == pytest.approx(6.0)  # 2 * 3

    def test_power_property(self, figure1):
        q2 = path_weight_matrix(figure1, 1)
        q4 = path_weight_matrix(figure1, 2)
        np.testing.assert_allclose(q4, q2 @ q2)

    def test_negative_ell_rejected(self, figure1):
        with pytest.raises(ValueError):
            path_weight_matrix(figure1, -1)


class TestTable2:
    """The paper's Table 2: H on Figure 1 with Poisson(lambda=2)."""

    @pytest.fixture
    def h(self, figure1):
        return h_matrix(figure1, PoissonPMF(lam=2.0), tau=80)

    def test_diagonal_u1(self, h):
        assert h[0, 0] == pytest.approx(3.641, abs=2e-3)

    def test_u1_u2(self, h):
        assert h[0, 1] == pytest.approx(3.506, abs=2e-3)

    def test_u1_u4(self, h):
        assert h[0, 3] == pytest.approx(4.064, abs=2e-3)

    def test_diagonal_u4(self, h):
        assert h[3, 3] == pytest.approx(5.429, abs=2e-3)

    def test_symmetry(self, h):
        np.testing.assert_allclose(h, h.T)

    def test_counterintuitive_raw_h(self, h):
        # The motivating observation: raw H ranks (u2, u4) above (u2, u1)
        # even though u1/u2 share all neighbors.
        assert h[1, 3] > h[1, 0]

    def test_mhs_fixes_ordering(self, figure1):
        s = mhs_matrix(figure1, PoissonPMF(lam=2.0), tau=80)
        # After Eq. (4) normalization the intuitive ordering holds; the
        # running example quotes s(u2,u4) = 0.914 (the in-text 0.981 for
        # s(u1,u2) is inconsistent with the paper's own Table 2 — Eq. (4)
        # with the published H values gives 3.506/3.641 = 0.963).
        assert s[0, 1] > s[1, 3]
        assert s[1, 3] == pytest.approx(0.914, abs=2e-3)
        assert s[0, 1] == pytest.approx(0.963, abs=2e-3)


class TestLemma21:
    """MHS properties proved in Lemma 2.1."""

    @pytest.mark.parametrize(
        "pmf",
        [PoissonPMF(lam=1.0), GeometricPMF(alpha=0.5), UniformPMF(tau=10)],
    )
    def test_bounded_zero_one(self, figure1, pmf):
        s = mhs_matrix(figure1, pmf, tau=10)
        assert s.min() >= -1e-12
        assert s.max() <= 1.0 + 1e-12

    def test_unit_diagonal(self, figure1):
        s = mhs_matrix(figure1, PoissonPMF(lam=1.0), tau=10)
        np.testing.assert_allclose(np.diagonal(s), 1.0)

    def test_zero_across_components(self):
        graph = two_cliques(3)
        s = mhs_matrix(graph, PoissonPMF(lam=1.0), tau=12)
        np.testing.assert_allclose(s[:3, 3:], 0.0, atol=1e-12)

    def test_isolated_node(self):
        dense = np.array([[1.0, 0.0], [0.0, 0.0]])
        graph = BipartiteGraph.from_dense(dense)
        s = mhs_matrix(graph, PoissonPMF(lam=1.0), tau=5)
        assert s[1, 1] == 1.0  # Lemma 2.1(ii) pins the diagonal
        assert s[0, 1] == 0.0


class TestHMatrix:
    def test_tau_zero_is_scaled_identity(self, figure1):
        pmf = PoissonPMF(lam=1.0)
        h = h_matrix(figure1, pmf, tau=0)
        np.testing.assert_allclose(h, pmf.omega(0) * np.eye(4))

    def test_increasing_in_tau(self, figure1):
        pmf = PoissonPMF(lam=2.0)
        h5 = h_matrix(figure1, pmf, tau=5)
        h10 = h_matrix(figure1, pmf, tau=10)
        assert (h10 - h5).min() >= -1e-12

    def test_v_side_dimensions(self, figure1):
        hv = h_matrix_v_side(figure1, PoissonPMF(lam=1.0), tau=5)
        assert hv.shape == (5, 5)

    def test_v_side_equals_transpose_construction(self, random_graph):
        pmf = GeometricPMF(alpha=0.4)
        hv = h_matrix_v_side(random_graph, pmf, tau=4)
        expected = h_matrix(random_graph.transpose(), pmf, tau=4)
        np.testing.assert_allclose(hv, expected)

    def test_negative_tau_rejected(self, figure1):
        with pytest.raises(ValueError):
            h_matrix(figure1, PoissonPMF(lam=1.0), tau=-1)


class TestMHP:
    def test_equals_h_times_w(self, random_graph):
        pmf = PoissonPMF(lam=1.0)
        h = h_matrix(random_graph, pmf, tau=5)
        p = mhp_matrix(random_graph, pmf, tau=5)
        np.testing.assert_allclose(p, h @ random_graph.to_dense())

    def test_shape(self, figure1):
        p = mhp_matrix(figure1, PoissonPMF(lam=1.0), tau=5)
        assert p.shape == (4, 5)

    def test_zero_for_disconnected(self):
        graph = two_cliques(2)
        p = mhp_matrix(graph, PoissonPMF(lam=1.0), tau=8)
        np.testing.assert_allclose(p[:2, 2:], 0.0, atol=1e-12)

    def test_direct_neighbors_score_higher_than_strangers(self, figure1):
        p = mhp_matrix(figure1, PoissonPMF(lam=1.0), tau=10)
        # u1's direct neighbor v1 outranks v5 (reachable only via 3+ hops).
        assert p[0, 0] > p[0, 4]


class TestVSideMHS:
    def test_unit_diagonal(self, figure1):
        s = mhs_matrix_v_side(figure1, PoissonPMF(lam=2.0), tau=20)
        np.testing.assert_allclose(np.diagonal(s), 1.0)

    def test_shared_neighborhood_similarity(self, figure1):
        s = mhs_matrix_v_side(figure1, PoissonPMF(lam=2.0), tau=20)
        # v2 and v3 share neighbors {u1, u2, u4}; v1 and v5 share none.
        assert s[1, 2] > s[0, 4]
