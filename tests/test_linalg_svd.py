"""Unit tests for the randomized SVD."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg import exact_svd, krylov_iteration_count, randomized_svd


@pytest.fixture
def low_rank_matrix(rng):
    """A 30x20 matrix with sharply decaying spectrum (easy to approximate)."""
    u, _ = np.linalg.qr(rng.standard_normal((30, 10)))
    v, _ = np.linalg.qr(rng.standard_normal((20, 10)))
    s = 2.0 ** -np.arange(10) * 50.0
    return (u * s) @ v.T


class TestExactSVD:
    def test_reconstruction_full_rank(self, rng):
        matrix = rng.standard_normal((6, 4))
        result = exact_svd(matrix, 4)
        np.testing.assert_allclose(result.reconstruct(), matrix, atol=1e-10)

    def test_accepts_sparse(self, rng):
        dense = rng.random((8, 5))
        result = exact_svd(sp.csr_matrix(dense), 3)
        assert result.u.shape == (8, 3)
        assert result.rank == 3


class TestRandomizedSVD:
    @pytest.mark.parametrize("strategy", ["block_krylov", "power"])
    def test_close_to_exact(self, low_rank_matrix, strategy, rng):
        k = 5
        exact = exact_svd(low_rank_matrix, k)
        approx = randomized_svd(
            low_rank_matrix, k, epsilon=0.05, strategy=strategy, rng=rng
        )
        np.testing.assert_allclose(approx.s, exact.s, rtol=1e-4)
        # Compare projectors (vectors are sign/rotation ambiguous).
        exact_proj = exact.u @ exact.u.T
        approx_proj = approx.u @ approx.u.T
        np.testing.assert_allclose(approx_proj, exact_proj, atol=1e-3)

    def test_sparse_input(self, rng):
        dense = rng.random((40, 25))
        dense[dense < 0.7] = 0.0
        sparse = sp.csr_matrix(dense)
        approx = randomized_svd(sparse, 4, rng=rng)
        exact = exact_svd(sparse, 4)
        np.testing.assert_allclose(approx.s, exact.s, rtol=1e-3)

    def test_singular_values_sorted_non_negative(self, low_rank_matrix, rng):
        result = randomized_svd(low_rank_matrix, 6, rng=rng)
        assert (result.s >= 0).all()
        assert (np.diff(result.s) <= 1e-12).all()

    def test_orthonormal_factors(self, low_rank_matrix, rng):
        result = randomized_svd(low_rank_matrix, 5, rng=rng)
        np.testing.assert_allclose(
            result.u.T @ result.u, np.eye(5), atol=1e-8
        )
        np.testing.assert_allclose(
            result.vt @ result.vt.T, np.eye(5), atol=1e-8
        )

    def test_smaller_epsilon_not_worse(self, rng):
        # A harder spectrum: slow decay.
        matrix = rng.standard_normal((60, 40))
        k = 8
        exact = exact_svd(matrix, k)
        loose = randomized_svd(matrix, k, epsilon=0.9, iterations=1,
                               rng=np.random.default_rng(0))
        tight = randomized_svd(matrix, k, epsilon=0.05,
                               rng=np.random.default_rng(0))
        loose_err = np.abs(loose.s - exact.s).max()
        tight_err = np.abs(tight.s - exact.s).max()
        assert tight_err <= loose_err + 1e-12

    def test_reproducible_with_seed(self, low_rank_matrix):
        a = randomized_svd(low_rank_matrix, 3, rng=np.random.default_rng(9))
        b = randomized_svd(low_rank_matrix, 3, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.s, b.s)

    def test_explicit_iterations_override(self, low_rank_matrix, rng):
        result = randomized_svd(low_rank_matrix, 3, iterations=1, rng=rng)
        assert result.rank == 3

    def test_k_validation(self, low_rank_matrix, rng):
        with pytest.raises(ValueError):
            randomized_svd(low_rank_matrix, 0, rng=rng)
        with pytest.raises(ValueError):
            randomized_svd(low_rank_matrix, 21, rng=rng)

    def test_oversamples_validation(self, rng):
        # A negative oversample would shrink the block below k and return
        # fewer than k triplets.
        matrix = sp.random(60, 40, density=0.2, random_state=0, format="csr")
        for n_oversamples in (-5, -10):
            with pytest.raises(ValueError, match="n_oversamples"):
                randomized_svd(matrix, 10, n_oversamples=n_oversamples, rng=rng)
        assert randomized_svd(matrix, 10, n_oversamples=0, rng=rng).rank == 10

    def test_iterations_validation(self, rng):
        # A negative count would silently run zero sweeps.
        matrix = sp.random(60, 40, density=0.2, random_state=0, format="csr")
        with pytest.raises(ValueError, match="iterations"):
            randomized_svd(matrix, 10, iterations=-3, rng=rng)
        assert randomized_svd(matrix, 10, iterations=0, rng=rng).rank == 10

    def test_strategy_validation(self, low_rank_matrix, rng):
        with pytest.raises(ValueError, match="strategy"):
            randomized_svd(low_rank_matrix, 2, strategy="magic", rng=rng)

    def test_full_rank_k(self, rng):
        matrix = rng.standard_normal((10, 6))
        result = randomized_svd(matrix, 6, epsilon=0.01, rng=rng)
        exact = exact_svd(matrix, 6)
        np.testing.assert_allclose(result.s, exact.s, rtol=1e-5)


class TestSignsAndGradedSpectra:
    @pytest.mark.parametrize("strategy", ["block_krylov", "power"])
    @pytest.mark.parametrize("shape", [(60, 40), (40, 60)])
    def test_largest_entry_of_each_u_column_positive(self, shape, strategy):
        matrix = sp.random(*shape, density=0.2, random_state=3, format="csr")
        result = randomized_svd(
            matrix, 10, strategy=strategy, rng=np.random.default_rng(0)
        )
        cols = np.arange(result.rank)
        largest = result.u[np.abs(result.u).argmax(axis=0), cols]
        assert (largest > 0).all()
        # Each vt row carries its u column's sign: u_i^T A v_i = +s_i.
        np.testing.assert_allclose(
            np.diag(result.u.T @ (matrix @ result.vt.T)), result.s, atol=1e-12
        )

    @pytest.mark.parametrize("strategy", ["block_krylov", "power"])
    @pytest.mark.parametrize("shape", [(60, 40), (40, 60)])
    def test_graded_spectrum_close_to_exact(self, shape, strategy):
        # Singular values graded from 1 down to 1e-6, all above the
        # sqrt(u) * sigma_1 floor of a sweep with one QR: the same
        # tolerances as test_close_to_exact.
        rng = np.random.default_rng(7)
        r = min(shape)
        u, _ = np.linalg.qr(rng.standard_normal((shape[0], r)))
        v, _ = np.linalg.qr(rng.standard_normal((shape[1], r)))
        matrix = (u * np.logspace(0, -6, r)) @ v.T
        k = 5
        exact = exact_svd(matrix, k)
        approx = randomized_svd(
            matrix, k, epsilon=0.05, strategy=strategy, rng=rng
        )
        np.testing.assert_allclose(approx.s, exact.s, rtol=1e-4)
        np.testing.assert_allclose(
            approx.u @ approx.u.T, exact.u @ exact.u.T, atol=1e-3
        )


class TestIterationCount:
    def test_monotone_in_epsilon(self):
        assert krylov_iteration_count(1000, 0.01) >= krylov_iteration_count(
            1000, 0.5
        )

    def test_monotone_in_n(self):
        assert krylov_iteration_count(10 ** 6, 0.1) >= krylov_iteration_count(
            100, 0.1
        )

    def test_floor_of_two(self):
        assert krylov_iteration_count(2, 100.0) == 2

    def test_rejects_non_positive_epsilon(self):
        with pytest.raises(ValueError):
            krylov_iteration_count(100, 0.0)
