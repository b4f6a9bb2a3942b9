"""Thread-parallel execution of the ``W (W^T Q)`` hot-path kernels.

scipy's low-level ``csr_matvecs`` / ``csc_matvecs`` routines release the GIL
for the duration of the product, so plain Python threads scale the sparse
applies across cores without any extra dependency.  This module is the one
place that decides the thread count and owns the pool:

* :func:`env_threads` — the thread count a new
  :class:`~repro.linalg.policy.DtypePolicy` takes from ``REPRO_NUM_THREADS``
  (default: ``os.cpu_count()``); ``1`` selects the exact serial path.  How
  many shards one apply uses is :meth:`DtypePolicy.shards_for`, which keeps
  toy-sized applies serial below a fixed work threshold.
* :func:`run_tasks` — runs a list of thunks on a process-wide, lazily
  created thread pool and re-raises the first worker exception in the
  caller.

Determinism contract
--------------------
Parallelism here never changes results, only wall time.  Both partitionings
used by the kernels are conflict-free *and* bit-identical to the serial
path per output element:

* **row-range shards** of ``W``'s CSR for ``W @ X`` — each worker owns a
  disjoint, contiguous range of output rows, and every output element is
  produced by the same multiply/add sequence as in the serial sweep;
* **column-chunk shards** of ``X`` for ``W^T @ X`` and the PMF power series
  — each worker owns a disjoint column slice of the output plus its own
  ping-pong hop buffers, and every column's recurrence is independent of
  every other column's.

Because each output element is written by exactly one worker with a fixed
operation order, results are bit-identical across thread counts and across
repeated runs at a fixed thread count (pinned by the hypothesis suite in
``tests/test_linalg_parallel.py``).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence, Tuple

import numpy as np

__all__ = ["env_threads", "run_tasks", "row_shards", "column_shards"]

_ENV_THREADS = "REPRO_NUM_THREADS"


def env_threads() -> int:
    """The kernel thread count ``REPRO_NUM_THREADS`` sets (default: the CPUs)."""
    raw = os.environ.get(_ENV_THREADS)
    if raw is None or raw.strip() == "":
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{_ENV_THREADS} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{_ENV_THREADS} must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# Deterministic partitionings
# ---------------------------------------------------------------------------
def row_shards(indptr: np.ndarray, n_shards: int) -> List[Tuple[int, int]]:
    """nnz-balanced contiguous row ranges ``[(lo, hi), ...]`` of a CSR matrix.

    Boundaries depend only on the matrix structure and the shard count, so
    the partition is deterministic.  Empty ranges are dropped; the returned
    ranges cover ``[0, n_rows)`` exactly once.
    """
    n_rows = len(indptr) - 1
    n_shards = max(1, min(n_shards, n_rows))
    nnz = int(indptr[-1])
    targets = [(nnz * s) // n_shards for s in range(1, n_shards)]
    cuts = [0]
    for target in targets:
        cut = int(np.searchsorted(indptr, target, side="left"))
        cuts.append(min(max(cut, cuts[-1]), n_rows))
    cuts.append(n_rows)
    return [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]


def column_shards(cols: int, n_shards: int) -> List[Tuple[int, int]]:
    """Balanced contiguous column ranges ``[(lo, hi), ...]`` covering ``cols``."""
    n_shards = max(1, min(n_shards, cols))
    cuts = [(cols * s) // n_shards for s in range(n_shards + 1)]
    return [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]


# ---------------------------------------------------------------------------
# The shared pool
# ---------------------------------------------------------------------------
_POOLS: dict = {}
_POOL_LOCK = threading.Lock()


def _pool(n_workers: int) -> ThreadPoolExecutor:
    """The process-wide pool with ``n_workers`` threads (created lazily)."""
    with _POOL_LOCK:
        pool = _POOLS.get(n_workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=n_workers, thread_name_prefix="repro-kernel"
            )
            _POOLS[n_workers] = pool
        return pool


def run_tasks(tasks: Sequence[Callable[[], None]], n_threads: int) -> None:
    """Execute ``tasks`` on the ``n_threads`` pool; block until all complete.

    A single task runs inline on the caller thread.  Worker exceptions
    propagate to the caller: all submitted tasks are still awaited, so no
    worker outlives the apply that spawned it, and the first exception is
    re-raised.
    """
    if len(tasks) < 2:
        for task in tasks:
            task()
        return
    pool = _pool(n_threads)
    futures = [pool.submit(task) for task in tasks]
    error = None
    for future in futures:
        try:
            future.result()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if error is None:
                error = exc
    if error is not None:
        raise error
