"""Tests for the workspace-reusing kernels and the dtype policy.

The headline invariants:

* the workspace kernels are **bit-identical** to the allocation-per-call
  reference path in float64 (hypothesis property tests, including chunked
  application with ``block_cols`` smaller than the block width);
* the obs matvec counters are **unchanged** by the dtype, column-chunk
  and thread-count policies (differential test: identical counts);
* the float32 policy agrees with float64 within a tolerance budget.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import aslinearoperator
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import GEBEPoisson, PoissonPMF, gebe_poisson
from repro.datasets import toy_graph
from repro.linalg import (
    DtypePolicy,
    ExecPolicy,
    GramKernel,
    MatrixFreeOperator,
    ProximityOperator,
    SparseKernel,
    pmf_weighted_apply,
    randomized_svd,
)


def random_sparse(rng: np.random.Generator, m: int, n: int, density: float):
    """A random non-negative CSR matrix with at least one entry."""
    mask = rng.random((m, n)) < density
    if not mask.any():
        mask[rng.integers(m), rng.integers(n)] = True
    dense = np.where(mask, rng.random((m, n)), 0.0)
    return sp.csr_matrix(dense)


@st.composite
def sparse_and_block(draw):
    """(W, block) pairs with varied shapes, densities, and block widths."""
    seed = draw(st.integers(0, 2**31 - 1))
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 9))
    density = draw(st.floats(0.05, 0.9))
    rng = np.random.default_rng(seed)
    w = random_sparse(rng, m, n, density)
    block = rng.standard_normal((m, k))
    return w, block


class TestDtypePolicy:
    def test_default_is_float64_workspace(self):
        policy = DtypePolicy()
        assert policy.compute_dtype == np.float64
        assert policy.is_exact
        assert policy.describe() == "float64/workspace"

    def test_float32_constructor(self):
        assert DtypePolicy.float32().describe() == "float32/workspace"
        assert not DtypePolicy.float32().is_exact

    def test_accumulate_must_be_float64(self, rng):
        # A float32 compute policy still orthonormalizes and extracts Ritz
        # values in float64: the factors come back in full precision.
        w = random_sparse(rng, 12, 8, 0.4)
        for strategy in ("power", "block_krylov"):
            svd = randomized_svd(
                w, 4, strategy=strategy, rng=np.random.default_rng(7),
                policy=DtypePolicy.float32(),
            )
            assert svd.u.dtype == svd.s.dtype == svd.vt.dtype == np.float64

    def test_unknown_compute_dtype_rejected(self):
        with pytest.raises(ValueError, match="compute dtype"):
            DtypePolicy(compute="float16")

    def test_block_cols_must_be_positive(self):
        with pytest.raises(ValueError, match="block_cols"):
            DtypePolicy(block_cols=0)


class TestSparseKernel:
    @settings(max_examples=50, deadline=None)
    @given(sparse_and_block())
    def test_matmul_bit_identical_to_scipy(self, data):
        w, block = data
        kernel = SparseKernel(w)
        v_block = np.random.default_rng(0).standard_normal((w.shape[1], block.shape[1]))
        expected = w @ v_block
        for reuse in (False, True):
            np.testing.assert_array_equal(kernel.matmul(v_block, reuse=reuse), expected)

    @settings(max_examples=50, deadline=None)
    @given(sparse_and_block())
    def test_t_matmul_bit_identical_to_scipy(self, data):
        w, block = data
        kernel = SparseKernel(w)
        expected = w.T @ block
        for reuse in (False, True):
            np.testing.assert_array_equal(kernel.t_matmul(block, reuse=reuse), expected)

    def test_1d_blocks(self, rng):
        w = random_sparse(rng, 6, 4, 0.5)
        kernel = SparseKernel(w)
        x = rng.standard_normal(4)
        y = rng.standard_normal(6)
        np.testing.assert_array_equal(kernel.matmul(x), w @ x)
        np.testing.assert_array_equal(kernel.t_matmul(y), w.T @ y)

    def test_reuse_buffer_is_overwritten(self, rng):
        w = random_sparse(rng, 5, 3, 0.6)
        kernel = SparseKernel(w)
        first = kernel.matmul(rng.standard_normal((3, 2)), reuse=True)
        snapshot = first.copy()
        second_input = rng.standard_normal((3, 2))
        second = kernel.matmul(second_input, reuse=True)
        assert second is not None
        assert not np.array_equal(first, snapshot)  # same storage, new values

    def test_workspace_grows_monotonically(self, rng):
        w = random_sparse(rng, 8, 5, 0.5)
        kernel = SparseKernel(w)
        kernel.matmul(rng.standard_normal((5, 2)), reuse=True)
        small = kernel.workspace_bytes()
        kernel.matmul(rng.standard_normal((5, 6)), reuse=True)
        assert kernel.workspace_bytes() > small


class TestGramKernelBitIdentity:
    @settings(max_examples=50, deadline=None)
    @given(sparse_and_block(), st.integers(0, 6))
    def test_pmf_apply_bit_identical(self, data, tau):
        w, block = data
        weights = PoissonPMF(lam=1.0).weights(tau)
        np.testing.assert_array_equal(
            GramKernel(w).pmf_apply(block, weights),
            pmf_weighted_apply(w, block, weights),
        )

    @settings(max_examples=50, deadline=None)
    @given(sparse_and_block(), st.integers(1, 4))
    def test_pmf_apply_chunked_bit_identical(self, data, block_cols):
        # Column chunking must preserve the per-element operation order.
        w, block = data
        weights = PoissonPMF(lam=1.0).weights(4)
        chunked = GramKernel(w, DtypePolicy(block_cols=block_cols))
        np.testing.assert_array_equal(
            chunked.pmf_apply(block, weights),
            pmf_weighted_apply(w, block, weights),
        )

    def test_1d_block(self, rng):
        w = random_sparse(rng, 6, 4, 0.5)
        weights = PoissonPMF(lam=1.0).weights(3)
        x = rng.standard_normal(6)
        out = GramKernel(w).pmf_apply(x, weights)
        assert out.shape == (6,)
        np.testing.assert_array_equal(out, pmf_weighted_apply(w, x, weights))


class TestOperatorPolicyEquivalence:
    # "legacy" is the allocation-per-call reference: the module-level
    # pmf_weighted_apply and plain scipy products.
    def test_matrix_free_operator_workspace_vs_legacy(self, rng):
        w = random_sparse(rng, 9, 6, 0.4)
        weights = PoissonPMF(lam=1.0).weights(5)
        block = rng.standard_normal((9, 4))
        workspace = MatrixFreeOperator(w, weights)  # default policy
        np.testing.assert_array_equal(
            workspace.matmat(block), pmf_weighted_apply(w, block, weights)
        )
        vector = rng.standard_normal(9)
        np.testing.assert_array_equal(
            workspace.matvec(vector),
            pmf_weighted_apply(w, vector.reshape(-1, 1), weights).ravel(),
        )

    def test_proximity_operator_workspace_vs_legacy(self, rng):
        w = random_sparse(rng, 8, 5, 0.4)
        weights = PoissonPMF(lam=1.0).weights(4)
        workspace = ProximityOperator(w, weights)
        block = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(
            workspace @ block, pmf_weighted_apply(w, w @ block, weights)
        )
        tall = rng.standard_normal((8, 3))
        legacy_t = w.T @ pmf_weighted_apply(w, tall, weights)
        np.testing.assert_array_equal(workspace.T @ tall, legacy_t)
        wide = rng.standard_normal((3, 8))
        np.testing.assert_array_equal(
            wide @ workspace, (w.T @ pmf_weighted_apply(w, wide.T, weights)).T
        )

    def test_randomized_svd_workspace_vs_legacy(self, rng):
        # Same rng seed -> same Gaussian start -> bit-identical factors; a
        # LinearOperator wrapper takes the generic plain-scipy ``@`` path.
        w = random_sparse(rng, 12, 8, 0.4)
        for strategy in ("power", "block_krylov"):
            a = randomized_svd(
                w, 4, strategy=strategy, rng=np.random.default_rng(7)
            )
            b = randomized_svd(
                aslinearoperator(w), 4, strategy=strategy,
                rng=np.random.default_rng(7),
            )
            np.testing.assert_array_equal(a.u, b.u)
            np.testing.assert_array_equal(a.s, b.s)
            np.testing.assert_array_equal(a.vt, b.vt)


class TestObsCounterDifferential:
    """The kernel refactor must not change operation accounting."""

    def _report(self, policy):
        graph = toy_graph()
        with obs.collect() as collector:
            gebe_poisson(8, seed=0, max_iterations=5, dtype_policy=policy).fit(graph)
            GEBEPoisson(8, seed=0, dtype_policy=policy).fit(graph)
        return collector.report(method="differential", wall_seconds=0.0)

    def test_matvec_counts_identical_across_policies(self):
        reference = self._report(DtypePolicy().with_threads(1)).ops
        # serial_threshold=0 shards even the toy applies across 4 threads.
        threaded = DtypePolicy(exec_policy=ExecPolicy(n_threads=4, serial_threshold=0))
        for policy in (DtypePolicy.float32(), DtypePolicy(block_cols=3), threaded):
            report = self._report(policy)
            candidate = report.ops
            assert candidate["sparse_matvecs"] == reference["sparse_matvecs"]
            assert candidate["flops"] == reference["flops"]
            assert candidate["qr_factorizations"] == reference["qr_factorizations"]
        assert report.threads == 4  # the threaded policy (last) really sharded


class TestFloat32Policy:
    def test_embeddings_close_to_float64_on_toy_graph(self):
        graph = toy_graph()
        exact = GEBEPoisson(8, seed=0).fit(graph)
        fast = GEBEPoisson(8, seed=0, dtype_policy=DtypePolicy.float32()).fit(graph)
        # Embeddings are sign/rotation-stable here because both runs share
        # the rng; float32 compute with float64 QR/Rayleigh-Ritz keeps ~6
        # significant digits.
        np.testing.assert_allclose(fast.u, exact.u, rtol=0, atol=1e-4)
        np.testing.assert_allclose(fast.v, exact.v, rtol=0, atol=1e-4)
        assert fast.u.dtype == np.float64  # results are always float64

    def test_gebe_float32_close_on_toy_graph(self):
        graph = toy_graph()
        exact = gebe_poisson(8, seed=0, max_iterations=10).fit(graph)
        fast = gebe_poisson(
            8, seed=0, max_iterations=10, dtype_policy=DtypePolicy.float32()
        ).fit(graph)
        np.testing.assert_allclose(fast.u, exact.u, rtol=0, atol=1e-4)

    def test_metadata_records_policy(self):
        graph = toy_graph()
        result = GEBEPoisson(4, seed=0, dtype_policy=DtypePolicy.float32()).fit(graph)
        assert result.metadata["dtype_policy"] == "float32/workspace"
        default = GEBEPoisson(4, seed=0).fit(graph)
        assert default.metadata["dtype_policy"] == "float64/workspace"
