"""Unit tests for QR utilities.

``thin_qr`` has two paths: CholeskyQR2 for tall blocks and the Householder
fallback for everything the fast path cannot factor stably.  The tests pin
which path each input takes, the shared output contract of both, and — at
fit level — that GEBE^p and GEBE's KSI come out the same whichever path
orthonormalizes their iterates.
"""

import numpy as np
import pytest

import repro.linalg.qr as qr_module
from repro import obs
from repro.core import GEBEPoisson, gebe_poisson
from repro.datasets import power_law_bipartite
from repro.linalg import is_semi_unitary, random_semi_unitary, thin_qr


class TestThinQR:
    def test_reconstruction(self, rng):
        block = rng.standard_normal((10, 4))
        q, r = thin_qr(block)
        np.testing.assert_allclose(q @ r, block, atol=1e-10)

    def test_q_orthonormal(self, rng):
        q, _ = thin_qr(rng.standard_normal((20, 6)))
        np.testing.assert_allclose(q.T @ q, np.eye(6), atol=1e-10)

    def test_r_upper_triangular(self, rng):
        _, r = thin_qr(rng.standard_normal((8, 5)))
        np.testing.assert_allclose(r, np.triu(r), atol=1e-12)

    def test_r_diagonal_non_negative(self, rng):
        for _ in range(5):
            _, r = thin_qr(rng.standard_normal((9, 4)))
            assert (np.diagonal(r) >= 0).all()

    def test_deterministic_sign_convention(self, rng):
        block = rng.standard_normal((10, 3))
        q1, r1 = thin_qr(block)
        q2, r2 = thin_qr(-block)
        # Same column space; R diagonals agree by the sign fix.
        np.testing.assert_allclose(
            np.abs(np.diagonal(r1)), np.abs(np.diagonal(r2)), atol=1e-10
        )

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            thin_qr(np.zeros(5))


class TestRandomSemiUnitary:
    def test_is_semi_unitary(self, rng):
        z = random_semi_unitary(15, 5, rng=rng)
        assert is_semi_unitary(z)

    def test_shape(self, rng):
        assert random_semi_unitary(7, 3, rng=rng).shape == (7, 3)

    def test_square_case(self, rng):
        z = random_semi_unitary(4, 4, rng=rng)
        np.testing.assert_allclose(z @ z.T, np.eye(4), atol=1e-10)

    def test_reproducible(self):
        a = random_semi_unitary(6, 2, rng=np.random.default_rng(1))
        b = random_semi_unitary(6, 2, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)

    def test_invalid_sizes(self, rng):
        with pytest.raises(ValueError):
            random_semi_unitary(3, 5, rng=rng)
        with pytest.raises(ValueError):
            random_semi_unitary(3, 0, rng=rng)


class TestIsSemiUnitary:
    def test_detects_non_orthonormal(self, rng):
        block = rng.standard_normal((8, 3))
        assert not is_semi_unitary(block)

    def test_tolerance(self, rng):
        z = random_semi_unitary(10, 4, rng=rng)
        perturbed = z + 1e-6
        assert not is_semi_unitary(perturbed, tol=1e-9)
        assert is_semi_unitary(perturbed, tol=1e-3)


# ---------------------------------------------------------------------------
# The two thin_qr paths
# ---------------------------------------------------------------------------
def _householder_reference(block):
    """Householder QR with the sign fix: the fallback path, spelled out."""
    q, r = np.linalg.qr(block, mode="reduced")
    signs = np.where(np.diagonal(r) < 0, -1.0, 1.0)
    return q * signs[np.newaxis, :], r * signs[:, np.newaxis]


def _ill_conditioned(rng, m=300, n=12, smallest=1e-12):
    """``U diag(logspace(0, log10(smallest))) V^T``: cond ``1/smallest``
    with the columns mixed, so the Gram matrix is ill-conditioned for
    Cholesky (plain column scaling would not be)."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.logspace(0, np.log10(smallest), n)
    return (u * sigma[np.newaxis, :]) @ v.T


def _assert_contract(block, q, r):
    """What both paths promise, for any finite input."""
    width = q.shape[1]
    assert np.linalg.norm(q.T @ q - np.eye(width)) <= 1e-12
    assert np.linalg.norm(q @ r - block) <= 1e-12 * np.linalg.norm(block)
    np.testing.assert_array_equal(r, np.triu(r))
    assert (np.diagonal(r) >= 0).all()
    assert q.flags.c_contiguous
    assert not np.shares_memory(q, block)


@pytest.fixture
def householder_calls(monkeypatch):
    """Records every block that reaches the Householder fallback."""
    calls = []
    fallback = qr_module._householder_qr

    def spy(block):
        calls.append(block.shape)
        return fallback(block)

    monkeypatch.setattr(qr_module, "_householder_qr", spy)
    return calls


class TestCholeskyQR2Path:
    @pytest.mark.parametrize("shape", [(2000, 40), (300, 12), (8, 4), (5, 1)])
    def test_tall_block_never_calls_householder(self, rng, monkeypatch, shape):
        block = rng.standard_normal(shape)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.qr called on the fast path")

        monkeypatch.setattr(np.linalg, "qr", forbidden)
        q, r = thin_qr(block)
        _assert_contract(block, q, r)

    def test_second_pass_restores_orthogonality(self, rng, householder_calls):
        """At cond 1e6 one Cholesky pass leaves ``Q^T Q - I`` near 1e-4;
        the second pass brings it to roundoff without the fallback."""
        block = _ill_conditioned(rng, m=2000, n=20, smallest=1e-6)
        _, r1_inv = qr_module._cholesky_factor(block)
        one_pass = block @ r1_inv
        assert np.linalg.norm(one_pass.T @ one_pass - np.eye(20)) > 1e-8
        q, r = thin_qr(block)
        assert householder_calls == []
        _assert_contract(block, q, r)

    @pytest.mark.parametrize("shape", [(2000, 40), (300, 12), (10, 5)])
    def test_agrees_with_householder_on_well_conditioned_blocks(
        self, rng, householder_calls, shape
    ):
        block = rng.standard_normal(shape)
        q_ref, r_ref = _householder_reference(block)
        q, r = thin_qr(block)
        assert householder_calls == []
        np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            r, r_ref, rtol=0, atol=1e-12 * np.linalg.norm(block)
        )

    def test_q_is_fresh_for_a_reused_workspace(self, rng):
        """The power iteration hands in the kernel's reused output buffer;
        overwriting it afterwards must not touch the returned ``Q``."""
        workspace = rng.standard_normal((500, 20))
        q, _ = thin_qr(workspace)
        kept = q.copy()
        workspace[...] = 0.0
        np.testing.assert_array_equal(q, kept)

    def test_one_count_per_call_on_either_path(self, rng, householder_calls):
        tall = rng.standard_normal((400, 10))
        with obs.collect() as collector:
            thin_qr(tall)  # fast path
            thin_qr(np.hstack([tall, tall[:, :2]]))  # rank-deficient fallback
            thin_qr(tall[:15])  # not tall: fallback
        assert collector.ops.qr_factorizations == 3
        assert householder_calls == [(400, 12), (15, 10)]


class TestHouseholderFallback:
    @pytest.mark.parametrize(
        "case",
        ["duplicated_columns", "ill_conditioned", "zero_column", "all_zero",
         "square", "wide"],
    )
    def test_fallback_taken_and_contract_holds(self, rng, householder_calls, case):
        gaussian = rng.standard_normal((300, 12))
        block = {
            "duplicated_columns": np.hstack([gaussian, gaussian[:, :4]]),
            "ill_conditioned": _ill_conditioned(rng),
            "zero_column": np.where(np.arange(12) == 5, 0.0, gaussian),
            "all_zero": np.zeros((300, 12)),
            "square": gaussian[:12],
            "wide": gaussian[:7],
        }[case]
        q, r = thin_qr(block)
        assert householder_calls == [block.shape]
        _assert_contract(block, q, r)

    def test_nan_input_behaves_as_householder(self, rng, householder_calls):
        block = rng.standard_normal((300, 12))
        block[17, 3] = np.nan
        q_ref, r_ref = _householder_reference(block)
        q, r = thin_qr(block)
        assert householder_calls == [block.shape]
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(r, r_ref)


# ---------------------------------------------------------------------------
# Fit-level differential: the fast path versus the forced fallback
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def zipf_graph():
    return power_law_bipartite(600, 200, 4000, exponent=0.8, seed=11)


def _force_fallback(monkeypatch):
    monkeypatch.setattr(qr_module, "_cholesky_qr2", lambda block: None)


def _count_fast_path(monkeypatch):
    """Counts the CholeskyQR2 factorizations that were accepted."""
    accepted = []
    fast = qr_module._cholesky_qr2

    def spy(block):
        factors = fast(block)
        if factors is not None:
            accepted.append(block.shape)
        return factors

    monkeypatch.setattr(qr_module, "_cholesky_qr2", spy)
    return accepted


def _sin_max_angle(a, b):
    """Sine of the largest principal angle between two column spaces,
    accurate to roundoff (unlike the ``sqrt(k - ||A^T B||^2)`` form)."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return float(np.linalg.norm(qb - qa @ (qa.T @ qb), 2))


class TestFitDifferential:
    @pytest.mark.parametrize("strategy", ["power", "block_krylov"])
    def test_gebe_p_matches_forced_fallback(self, zipf_graph, monkeypatch, strategy):
        def fit():
            return GEBEPoisson(8, svd_strategy=strategy, seed=3).fit(zipf_graph)

        with monkeypatch.context() as patch:
            accepted = _count_fast_path(patch)
            fast = fit()
        assert accepted, "the fit never took the CholeskyQR2 path"
        with monkeypatch.context() as patch:
            _force_fallback(patch)
            slow = fit()
        np.testing.assert_allclose(
            fast.metadata["singular_values"],
            slow.metadata["singular_values"],
            rtol=0,
            atol=1e-10,
        )
        assert _sin_max_angle(fast.u, slow.u) <= 1e-8

    def test_gebe_ksi_ritz_values_match_forced_fallback(self, zipf_graph, monkeypatch):
        def fit():
            return gebe_poisson(8, tau=5, seed=3, max_iterations=60).fit(zipf_graph)

        with monkeypatch.context() as patch:
            accepted = _count_fast_path(patch)
            fast = fit()
        assert accepted, "KSI never took the CholeskyQR2 path"
        with monkeypatch.context() as patch:
            _force_fallback(patch)
            slow = fit()
        np.testing.assert_allclose(
            fast.metadata["eigenvalues"],
            slow.metadata["eigenvalues"],
            rtol=0,
            atol=1e-10,
        )

    def test_seeded_fit_is_bit_identical(self, zipf_graph):
        first = GEBEPoisson(8, seed=5).fit(zipf_graph)
        second = GEBEPoisson(8, seed=5).fit(zipf_graph)
        np.testing.assert_array_equal(first.u, second.u)
