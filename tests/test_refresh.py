"""Tests for warm-started SVD refresh (repro.linalg.refresh) and its wiring.

Covers the two layers of the incremental pipeline's refit step:

* ``refresh_svd`` — warm acceptance, bit-identical cold fallback for every
  rejection reason, and the matvec savings the warm schedule exists for.
* ``GEBEPoisson(warm_start=...)`` — the solver-level entry point and its
  ``metadata["refresh"]`` record.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import GEBEPoisson
from repro.datasets import erdos_renyi_bipartite
from repro.graph import DeltaLog, apply_deltas
from repro.linalg import (
    DtypePolicy,
    default_residual_tolerance,
    exact_svd,
    randomized_svd,
    refresh_svd,
    svd_residual,
    warm_basis_from_embedding,
    warm_iteration_count,
)
from repro.tasks import TopKEngine


def _perturbed(matrix, scale=1e-3, seed=99):
    """The matrix plus a small random perturbation of its stored values."""
    out = matrix.copy()
    rng = np.random.default_rng(seed)
    out.data = out.data * (1.0 + scale * rng.standard_normal(out.data.shape))
    return out


@pytest.fixture
def sparse_w():
    return erdos_renyi_bipartite(60, 40, 400, weighted=True, seed=2).w


class TestWarmIterationCount:
    def test_strictly_below_cold_schedule(self):
        from repro.linalg import krylov_iteration_count

        for n, eps in [(1000, 0.1), (10_000, 0.1), (1000, 0.05)]:
            cold = krylov_iteration_count(n, eps)
            warm = warm_iteration_count(n, eps)
            assert 1 <= warm < cold


class TestRefreshSVD:
    def test_warm_accepted_on_small_delta(self, sparse_w):
        k = 8
        base = randomized_svd(sparse_w, k, rng=np.random.default_rng(0))
        nearby = _perturbed(sparse_w)
        svd, info = refresh_svd(nearby, k, warm_start=base.u, seed=0)
        assert info.mode == "warm"
        assert info.reason == "ok"
        assert info.residual <= info.tolerance
        assert info.warm_rank == k
        # The warm result is a genuine factorization of the new matrix.
        assert svd_residual(nearby, svd) <= info.tolerance

    def test_warm_saves_matvecs(self, sparse_w):
        k = 8
        base = randomized_svd(sparse_w, k, rng=np.random.default_rng(0))
        nearby = _perturbed(sparse_w)
        with obs.collect() as cold_collector:
            refresh_svd(nearby, k, warm_start=None, seed=0)
        with obs.collect() as warm_collector:
            _, info = refresh_svd(nearby, k, warm_start=base.u, seed=0)
        assert info.mode == "warm"
        assert warm_collector.ops.sparse_matvecs < cold_collector.ops.sparse_matvecs
        assert warm_collector.ops.qr_factorizations < cold_collector.ops.qr_factorizations

    @pytest.mark.parametrize(
        "warm_start, reason",
        [
            (None, "no_warm_start"),
            ("wrong_rows", "incompatible"),
            ("empty", "incompatible"),
        ],
    )
    def test_structural_fallback_reasons(self, sparse_w, warm_start, reason):
        if warm_start == "wrong_rows":
            warm_start = np.ones((sparse_w.shape[0] + 1, 4))
        elif warm_start == "empty":
            warm_start = np.ones((sparse_w.shape[0], 0))
        svd, info = refresh_svd(sparse_w, 6, warm_start=warm_start, seed=0)
        assert info.mode == "cold_fallback"
        assert info.reason == reason
        assert np.isnan(info.residual)
        cold = randomized_svd(sparse_w, 6, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(svd.u, cold.u)
        np.testing.assert_array_equal(svd.s, cold.s)

    def test_residual_fallback_is_bit_identical_cold(self, sparse_w):
        # A basis from an unrelated random matrix with a tiny tolerance: the
        # warm attempt must be rejected and the fallback must match a fit
        # that never warm-started, bit for bit.
        rng = np.random.default_rng(7)
        junk = np.linalg.qr(rng.standard_normal((sparse_w.shape[0], 6)))[0]
        svd, info = refresh_svd(
            sparse_w, 6, warm_start=junk, seed=0, residual_tolerance=1e-14
        )
        assert info.mode == "cold_fallback"
        assert info.reason == "residual"
        assert np.isfinite(info.residual) and info.residual > info.tolerance
        cold = randomized_svd(sparse_w, 6, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(svd.u, cold.u)
        np.testing.assert_array_equal(svd.s, cold.s)
        np.testing.assert_array_equal(svd.vt, cold.vt)

    def test_to_dict_maps_nan_residual_to_none(self, sparse_w):
        _, info = refresh_svd(sparse_w, 4, warm_start=None, seed=0)
        payload = info.to_dict()
        assert payload["residual"] is None
        assert payload["mode"] == "cold_fallback"

    def test_residual_is_float64_at_any_policy(self, sparse_w):
        svd = randomized_svd(sparse_w, 6, rng=np.random.default_rng(0))
        expected = np.linalg.norm(sparse_w @ svd.vt.T - svd.u * svd.s) / svd.s[0]
        for policy in (None, DtypePolicy.float32(), DtypePolicy().with_threads(4)):
            assert svd_residual(sparse_w, svd, policy) == expected

    def test_default_tolerance_validates(self):
        assert default_residual_tolerance(0.1) == pytest.approx(np.sqrt(0.1) / 2)
        with pytest.raises(ValueError):
            default_residual_tolerance(0.0)


class TestWarmBasisFromEmbedding:
    def test_recovers_orthonormal_basis(self, sparse_w):
        svd = exact_svd(sparse_w, 6)
        scaled = svd.u * (svd.s[np.newaxis, :] + 1.0)  # a U = Phi * diag(c)
        basis = warm_basis_from_embedding(scaled)
        np.testing.assert_allclose(basis.T @ basis, np.eye(6), atol=1e-10)
        # Same column spans, up to sign.
        overlap = np.abs(np.sum(basis * svd.u, axis=0))
        np.testing.assert_allclose(overlap, np.ones(6), atol=1e-10)

    def test_drops_zero_padded_columns(self):
        u = np.zeros((10, 5))
        u[:, :3] = np.random.default_rng(0).standard_normal((10, 3))
        basis = warm_basis_from_embedding(u)
        assert basis.shape == (10, 3)

    def test_effective_dimension_slices_first(self):
        u = np.random.default_rng(0).standard_normal((10, 5))
        basis = warm_basis_from_embedding(u, effective_dimension=2)
        assert basis.shape == (10, 2)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            warm_basis_from_embedding(np.ones(4))


class TestGEBEPoissonWarm:
    def test_explicit_warm_start_records_metadata_and_saves_matvecs(self):
        graph = erdos_renyi_bipartite(60, 40, 400, weighted=True, seed=2)
        base = GEBEPoisson(dimension=8, seed=0).fit(graph)
        log = DeltaLog.for_graph(graph)
        coo = graph.w.tocoo()
        for pos in range(0, coo.nnz, 50):
            log.reweight(
                int(coo.row[pos]), int(coo.col[pos]), float(coo.data[pos]) * 1.1
            )
        new_graph = apply_deltas(graph, log)
        with obs.collect() as cold_collector:
            GEBEPoisson(dimension=8, seed=0).fit(new_graph)
        basis = warm_basis_from_embedding(
            base.u, base.metadata.get("effective_dimension")
        )
        with obs.collect() as warm_collector:
            warm = GEBEPoisson(dimension=8, seed=0, warm_start=basis).fit(new_graph)
        refresh = warm.metadata["refresh"]
        assert refresh["mode"] == "warm"
        assert refresh["reason"] == "ok"
        assert warm_collector.ops.sparse_matvecs < cold_collector.ops.sparse_matvecs

    def test_warm_quality_matches_cold(self):
        # The accepted warm refit is an eps-class approximation like the
        # cold one: compare both against the exact truncated SVD.
        graph = erdos_renyi_bipartite(60, 40, 400, weighted=True, seed=2)
        base = GEBEPoisson(dimension=8, seed=0).fit(graph)
        log = DeltaLog.for_graph(graph)
        coo = graph.w.tocoo()
        log.reweight(int(coo.row[0]), int(coo.col[0]), float(coo.data[0]) * 1.3)
        new_graph = apply_deltas(graph, log)
        basis = warm_basis_from_embedding(base.u)
        warm = GEBEPoisson(dimension=8, seed=0, warm_start=basis).fit(new_graph)
        cold = GEBEPoisson(dimension=8, seed=0).fit(new_graph)
        assert warm.metadata["refresh"]["mode"] == "warm"
        # Both are eps = 0.1 randomized approximations, not the same bits —
        # agreement is to the guarantee class, not machine precision.
        np.testing.assert_allclose(
            np.sort(warm.metadata["singular_values"]),
            np.sort(cold.metadata["singular_values"]),
            rtol=1e-2,
        )
        # Sorted values cannot see a spectrum paired with the wrong vectors;
        # the top-10 lists can.  Mean per-user share of the cold list that
        # the warm list recovers: heavy divergence, not element identity,
        # is the failure.
        warm_lists = TopKEngine.from_result(warm).top_items(10)
        cold_lists = TopKEngine.from_result(cold).top_items(10)
        overlap = np.mean(
            [np.isin(cold_lists[i], warm_lists[i]).mean() for i in range(graph.num_u)]
        )
        assert overlap >= 0.9
