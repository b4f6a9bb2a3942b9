"""Thread-parallel execution of the ``W (W^T Q)`` hot-path kernels.

scipy's low-level ``csr_matvecs`` / ``csc_matvecs`` routines release the GIL
for the duration of the product, so plain Python threads scale the sparse
applies across cores without any extra dependency.  This module provides the
two pieces the kernels need:

* :class:`ExecPolicy` — how many worker threads to use and when *not* to use
  them.  The thread count resolves from ``REPRO_NUM_THREADS`` (default:
  ``os.cpu_count()``); ``1`` selects the exact legacy serial path.  An
  auto-tune threshold (``serial_threshold``) keeps toy-sized applies on the
  serial path so small graphs never pay pool dispatch overhead.
* :class:`ParallelExecutor` — a thin wrapper over a process-wide, lazily
  created thread pool.  It runs a list of thunks and re-raises the first
  worker exception in the caller.

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
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

__all__ = ["ExecPolicy", "ParallelExecutor", "row_shards", "column_shards"]

#: Work units (``nnz * cols`` of one logical apply) below which sharding is
#: not worth the pool dispatch overhead.  At ~2 FLOPs per unit this is a few
#: hundred microseconds of serial work — comparable to waking the pool.
DEFAULT_SERIAL_THRESHOLD = 500_000

_ENV_THREADS = "REPRO_NUM_THREADS"


def _env_int(name: str, default: int, minimum: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class ExecPolicy:
    """Thread count and auto-tune threshold for the kernel executor.

    Attributes
    ----------
    n_threads:
        Worker threads for sharded applies.  ``1`` (the serial policy) is
        the exact legacy path: no pool, no sharding, byte-for-byte the
        pre-parallel control flow.
    serial_threshold:
        Minimum work size (``nnz * cols`` of the logical apply) before a
        product is sharded.  Applies below the threshold always run
        serially, so toy graphs never pay pool overhead.
    """

    n_threads: int = 1
    serial_threshold: int = DEFAULT_SERIAL_THRESHOLD

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.serial_threshold < 0:
            raise ValueError(
                f"serial_threshold must be >= 0, got {self.serial_threshold}"
            )

    @classmethod
    def from_env(cls) -> "ExecPolicy":
        """Resolve from the environment.

        ``REPRO_NUM_THREADS`` sets the thread count (default
        ``os.cpu_count()``); the auto-tune threshold is
        :data:`DEFAULT_SERIAL_THRESHOLD`.
        """
        return cls(n_threads=_env_int(_ENV_THREADS, os.cpu_count() or 1, 1))

    def shards_for(self, work: int, limit: int) -> int:
        """How many shards a logical apply of ``work`` units should use.

        ``limit`` caps the shard count at the available parallel grain
        (rows for CSR row shards, columns for column shards).  Returns 1
        — the serial path — for sub-threshold work or a single-thread
        policy.
        """
        if self.n_threads <= 1 or limit <= 1:
            return 1
        if work < self.serial_threshold:
            return 1
        return min(self.n_threads, limit)


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


class ParallelExecutor:
    """Runs shard thunks on the shared pool; serial below the threshold.

    Stateless besides the policy — the pool itself is shared process-wide
    so repeated applies reuse warm threads.
    """

    def __init__(self, policy: ExecPolicy):
        self.policy = policy

    def shards_for(self, work: int, limit: int) -> int:
        """Delegates to :meth:`ExecPolicy.shards_for`."""
        return self.policy.shards_for(work, limit)

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Execute ``tasks``; block until all complete.

        A single task runs inline on the caller thread.  Worker exceptions
        propagate to the caller (all submitted tasks are still awaited so
        no worker outlives the apply that spawned it).
        """
        if len(tasks) == 1:
            tasks[0]()
            return
        pool = _pool(self.policy.n_threads)
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
