"""Tests for the parallel kernel executor (``repro.linalg.parallel``).

The headline invariants, per the determinism contract:

* **bit-identity across thread counts** — ``W @ X``, ``W.T @ X`` and
  ``pmf_apply`` produce byte-for-byte identical results
  for ``n_threads in {1, 2, 4}``, in float64 *and* float32 (hypothesis
  property tests);
* **determinism across repeated runs** at a fixed thread count;
* **obs counters are unchanged by parallelism** — operations are counted
  once per logical apply, never per shard, so every thread count yields
  identical `sparse_matvecs` / `flops`;
* the partitionings are exact covers: row shards tile ``[0, n_rows)``,
  column shards tile ``[0, cols)``, each exactly once.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import PoissonPMF
from repro.linalg import (
    DtypePolicy,
    ExecPolicy,
    GramKernel,
    ParallelExecutor,
    SparseKernel,
    pmf_weighted_apply,
)
from repro.linalg.parallel import DEFAULT_SERIAL_THRESHOLD, column_shards, row_shards

THREAD_COUNTS = (1, 2, 4)
#: PMF weights whose series is one Gram apply: ``0 I + 1 (W W^T)``.
GRAM_HOP = (0.0, 1.0)


def _policy(n_threads: int, compute: str = "float64") -> DtypePolicy:
    """A policy pinned to ``n_threads`` with the auto-tuner disabled,
    so even test-sized applies exercise the sharded path."""
    return DtypePolicy(
        compute=compute,
        exec_policy=ExecPolicy(n_threads=n_threads, serial_threshold=0),
    )


def random_sparse(rng: np.random.Generator, m: int, n: int, density: float):
    mask = rng.random((m, n)) < density
    if not mask.any():
        mask[rng.integers(m), rng.integers(n)] = True
    dense = np.where(mask, rng.random((m, n)), 0.0)
    return sp.csr_matrix(dense)


@st.composite
def sparse_and_block(draw):
    """(W, V-side block, U-side block) with varied shapes and densities."""
    seed = draw(st.integers(0, 2**31 - 1))
    m = draw(st.integers(1, 16))
    n = draw(st.integers(1, 16))
    k = draw(st.integers(1, 9))
    density = draw(st.floats(0.05, 0.9))
    rng = np.random.default_rng(seed)
    w = random_sparse(rng, m, n, density)
    v_block = rng.standard_normal((n, k))
    u_block = rng.standard_normal((m, k))
    return w, v_block, u_block


class TestExecPolicy:
    def test_defaults(self):
        policy = ExecPolicy()
        assert policy.n_threads == 1
        assert policy.serial_threshold > 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="n_threads"):
            ExecPolicy(n_threads=0)
        with pytest.raises(ValueError, match="serial_threshold"):
            ExecPolicy(serial_threshold=-1)

    def test_from_env_reads_thread_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        policy = ExecPolicy.from_env()
        assert policy.n_threads == 3
        assert policy.serial_threshold == DEFAULT_SERIAL_THRESHOLD

    def test_from_env_defaults_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert ExecPolicy.from_env().n_threads == (os.cpu_count() or 1)

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "lots")
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            ExecPolicy.from_env()
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            ExecPolicy.from_env()

    def test_shards_for_auto_tune(self):
        policy = ExecPolicy(n_threads=4, serial_threshold=1000)
        assert policy.shards_for(999, limit=100) == 1  # below threshold
        assert policy.shards_for(1000, limit=100) == 4
        assert policy.shards_for(1000, limit=2) == 2  # grain-limited
        assert policy.shards_for(1000, limit=1) == 1
        assert ExecPolicy(n_threads=1).shards_for(10**9, limit=100) == 1

    def test_dtype_policy_with_threads(self):
        policy = DtypePolicy().with_threads(4)
        assert policy.n_threads == 4
        # The slug is thread-free: same policy label at every thread count.
        assert policy.describe() == DtypePolicy().with_threads(1).describe()


class TestShardPartitionings:
    @settings(max_examples=60, deadline=None)
    @given(sparse_and_block(), st.integers(1, 8))
    def test_row_shards_tile_the_row_range(self, data, n_shards):
        w, _, _ = data
        shards = row_shards(w.indptr, n_shards)
        assert shards[0][0] == 0 and shards[-1][1] == w.shape[0]
        for (_, hi), (lo, _) in zip(shards[:-1], shards[1:]):
            assert hi == lo  # contiguous, no overlap, no gap
        assert all(hi > lo for lo, hi in shards)
        assert len(shards) <= min(n_shards, w.shape[0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 8))
    def test_column_shards_tile_the_column_range(self, cols, n_shards):
        shards = column_shards(cols, n_shards)
        assert shards[0][0] == 0 and shards[-1][1] == cols
        for (_, hi), (lo, _) in zip(shards[:-1], shards[1:]):
            assert hi == lo
        widths = [hi - lo for lo, hi in shards]
        assert max(widths) - min(widths) <= 1  # balanced

    def test_row_shards_balance_nnz(self):
        # One dense row among empty ones: the heavy row is one shard.
        w = sp.csr_matrix(np.vstack([np.ones((1, 50)), np.zeros((7, 50))]))
        shards = row_shards(w.indptr, 4)
        nnz_per = [w.indptr[hi] - w.indptr[lo] for lo, hi in shards]
        assert max(nnz_per) == w.nnz  # all mass in one shard, others empty rows

    def test_empty_matrix_single_shard(self):
        w = sp.csr_matrix((3, 4))
        assert row_shards(w.indptr, 4) == [(0, 3)]


class TestParallelExecutor:
    def test_single_task_runs_inline(self):
        import threading

        ran_on = []
        executor = ParallelExecutor(ExecPolicy(n_threads=4))
        executor.run([lambda: ran_on.append(threading.current_thread().name)])
        assert ran_on == [threading.current_thread().name]

    def test_worker_exception_propagates(self):
        executor = ParallelExecutor(ExecPolicy(n_threads=2))

        def boom():
            raise RuntimeError("shard failed")

        with pytest.raises(RuntimeError, match="shard failed"):
            executor.run([boom, lambda: None])

    def test_all_tasks_complete(self):
        executor = ParallelExecutor(ExecPolicy(n_threads=4))
        hits = [0] * 8
        executor.run([lambda i=i: hits.__setitem__(i, 1) for i in range(8)])
        assert hits == [1] * 8


class TestBitIdentityAcrossThreads:
    """Parallelism must never change results — not even the last bit."""

    @settings(max_examples=40, deadline=None)
    @given(sparse_and_block())
    def test_matmul(self, data):
        w, v_block, _ = data
        expected = SparseKernel(w, _policy(1)).matmul(v_block)
        for n_threads in THREAD_COUNTS:
            kernel = SparseKernel(w, _policy(n_threads))
            for _ in range(2):  # repeated runs at a fixed thread count
                np.testing.assert_array_equal(
                    kernel.matmul(v_block, reuse=True), expected
                )

    @settings(max_examples=40, deadline=None)
    @given(sparse_and_block())
    def test_t_matmul(self, data):
        w, _, u_block = data
        expected = SparseKernel(w, _policy(1)).t_matmul(u_block)
        for n_threads in THREAD_COUNTS:
            kernel = SparseKernel(w, _policy(n_threads))
            for _ in range(2):
                np.testing.assert_array_equal(
                    kernel.t_matmul(u_block, reuse=True), expected
                )

    @settings(max_examples=40, deadline=None)
    @given(sparse_and_block(), st.integers(0, 5))
    def test_pmf_apply(self, data, tau):
        w, _, u_block = data
        weights = PoissonPMF(lam=1.0).weights(tau)
        expected = pmf_weighted_apply(w, u_block, weights)
        for n_threads in THREAD_COUNTS:
            np.testing.assert_array_equal(
                GramKernel(w, _policy(n_threads)).pmf_apply(u_block, weights),
                expected,
            )

    @settings(max_examples=25, deadline=None)
    @given(sparse_and_block())
    def test_float32_bit_identical_across_threads(self, data):
        # float32 differs from float64 but must still be deterministic and
        # partition-independent: identical bytes at every thread count.
        w, v_block, u_block = data
        weights = PoissonPMF(lam=1.0).weights(3)
        serial = _policy(1, compute="float32")
        expected_mm = SparseKernel(w, serial).matmul(v_block)
        expected_pmf = GramKernel(w, serial).pmf_apply(u_block, weights)
        for n_threads in THREAD_COUNTS[1:]:
            policy = _policy(n_threads, compute="float32")
            got = SparseKernel(w, policy).matmul(v_block)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, expected_mm)
            np.testing.assert_array_equal(
                GramKernel(w, policy).pmf_apply(u_block, weights), expected_pmf
            )

    def test_chunked_and_sharded_compose(self, rng):
        # block_cols chunking and column sharding stack without changing
        # results.
        w = random_sparse(rng, 14, 9, 0.4)
        block = rng.standard_normal((14, 11))
        weights = PoissonPMF(lam=1.0).weights(4)
        expected = pmf_weighted_apply(w, block, weights)
        for block_cols in (1, 2, 3):
            policy = DtypePolicy(
                block_cols=block_cols,
                exec_policy=ExecPolicy(n_threads=4, serial_threshold=0),
            )
            np.testing.assert_array_equal(
                GramKernel(w, policy).pmf_apply(block, weights), expected
            )


class TestObsCountsThreadInvariant:
    """Operations are counted once per logical apply, never per shard."""

    def _counts(self, n_threads):
        rng = np.random.default_rng(7)
        w = random_sparse(rng, 20, 12, 0.3)
        block = rng.standard_normal((20, 6))
        v_block = rng.standard_normal((12, 6))
        weights = PoissonPMF(lam=1.0).weights(4)
        policy = _policy(n_threads)
        with obs.collect() as collector:
            SparseKernel(w, policy).matmul(v_block)
            SparseKernel(w, policy).t_matmul(block)
            gram = GramKernel(w, policy)
            gram.pmf_apply(block, GRAM_HOP)
            gram.pmf_apply(block, weights)
        return collector.report(method="counts", wall_seconds=0.0).ops

    def test_counts_identical_across_thread_counts(self):
        reference = self._counts(1)
        assert reference["sparse_matvecs"] > 0
        for n_threads in THREAD_COUNTS[1:]:
            assert self._counts(n_threads) == reference


class TestThreadReporting:
    def test_threads_used_reflects_sharding(self, rng):
        w = random_sparse(rng, 16, 10, 0.5)
        block = rng.standard_normal((16, 8))
        gram = GramKernel(w, _policy(4))
        gram.pmf_apply(block, GRAM_HOP)
        assert gram.threads_used > 1

    def test_serial_threshold_keeps_toy_applies_serial(self, rng):
        w = random_sparse(rng, 16, 10, 0.5)
        block = rng.standard_normal((16, 8))
        policy = DtypePolicy(
            exec_policy=ExecPolicy(n_threads=4)  # default (large) threshold
        )
        gram = GramKernel(w, policy)
        gram.pmf_apply(block, GRAM_HOP)
        assert gram.threads_used == 1

    def test_collector_records_threads_and_workspace(self, rng):
        w = random_sparse(rng, 16, 10, 0.5)
        block = rng.standard_normal((16, 8))
        with obs.collect() as collector:
            gram = GramKernel(w, _policy(4))
            gram.pmf_apply(block, PoissonPMF(lam=1.0).weights(3))
        report = collector.report(method="reporting", wall_seconds=0.0)
        assert report.threads > 1
        assert report.memory["workspace_bytes"] == gram.workspace_bytes()
        assert report.memory["workspace_bytes"] > 0
        assert f"{report.threads} thread" in report.summary()

    def test_workspace_sums_per_slot_pools(self, rng):
        w = random_sparse(rng, 16, 10, 0.5)
        block = rng.standard_normal((16, 8))
        # Two-column chunks, so the serial apply reuses one chunk's hop
        # buffers for all four chunks.
        serial = GramKernel(w, replace(_policy(1), block_cols=2))
        serial.pmf_apply(block, GRAM_HOP)
        sharded = GramKernel(w, replace(_policy(4), block_cols=2))
        sharded.pmf_apply(block, GRAM_HOP)
        # Per-thread hop buffers make the sharded pool strictly bigger.
        assert sharded.workspace_bytes() > serial.workspace_bytes()
