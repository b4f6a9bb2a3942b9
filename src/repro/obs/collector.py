"""Collectors: the switch between "profiling off" and "profiling on".

Instrumented call sites throughout the library do::

    from .. import obs            # (or: from ..obs import active)
    obs.active().count_spmv(w.nnz, cols)
    with obs.active().stage("rsvd"):
        ...

By default :func:`active` returns the module-wide :data:`NULL` collector — a
:class:`NullCollector` whose every method is an empty body and whose
``stage`` returns a shared no-op context manager.  That keeps the
instrumentation *zero-overhead-by-default*: no allocation, no branching at
call sites, just a cheap no-op call (guarded by a benchmark test).

Profiling turns on by activating a :class:`ProfileCollector`::

    with obs.collect() as collector:
        result = GEBEPoisson(dimension=32, seed=0).fit(graph)
    report = collector.report(method=result.method, dataset="toy")

Activation is process-global and restored on exit, matching how the solvers
are used (one fit at a time per process; the experiment harness runs methods
sequentially).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, ContextManager, Dict, Iterator, Optional

from .counters import OpCounter
from .memory import MemorySampler
from .report import RunReport
from .timer import StageTimer

__all__ = ["NullCollector", "ProfileCollector", "NULL", "active", "collect"]


class _NullStage:
    """A reusable, state-free no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_STAGE = _NullStage()


class NullCollector:
    """The do-nothing collector active when profiling is off.

    Every instrumented call site talks to this interface; subclasses
    override the methods that should actually record something.
    """

    enabled = False

    def stage(self, name: str) -> ContextManager[Any]:
        """A timing scope for one named stage (no-op here)."""
        return _NULL_STAGE

    def count_spmv(self, nnz: int, cols: int = 1) -> None:
        """Record sparse matrix times ``cols``-wide dense block (no-op)."""

    def count_gemm(self, m: int, k: int, n: int) -> None:
        """Record one dense GEMM (no-op)."""

    def count_qr(self, m: int, n: int) -> None:
        """Record one economic QR (no-op)."""

    def count_svd(self, m: int, n: int) -> None:
        """Record one dense SVD (no-op)."""

    def count_topk(self, candidates: int) -> None:
        """Record scored top-k retrieval candidates (no-op)."""

    def count_ann_probe(self, cells: int) -> None:
        """Record probed ANN inverted-list cells (no-op)."""

    def count_ann_candidates(self, candidates: int) -> None:
        """Record exactly reranked ANN candidates (no-op)."""

    def count_ooc_copy(self, nbytes: int) -> None:
        """Record bytes block-copied from a mmap-backed CSR (no-op)."""

    def note_array(self, nbytes: int) -> None:
        """Record a dense block allocation (no-op)."""

    def note_workspace(self, nbytes: int) -> None:
        """Record a kernel's total reusable-workspace bytes (no-op)."""

    def note_threads(self, n_threads: int) -> None:
        """Record the effective kernel thread count (no-op)."""

    def sample_memory(self) -> None:
        """Take an RSS sample (no-op)."""


class ProfileCollector(NullCollector):
    """The recording collector: timers + op counters + memory watermarks.

    Not thread-safe by design: instrumented call sites only report from the
    solver's calling thread.  The parallel kernels uphold this by counting
    once per logical apply before dispatching shards and by keeping worker
    threads away from the collector entirely.
    """

    enabled = True

    def __init__(self) -> None:
        self.timer = StageTimer()
        self.ops = OpCounter()
        self.memory = MemorySampler()
        self.threads = 1
        self.ooc_bytes_copied = 0
        self.started = time.perf_counter()
        self.memory.sample()

    @contextmanager
    def _timed_stage(self, name: str) -> Iterator[Any]:
        with self.timer.stage(name) as record:
            yield record
        self.memory.sample()

    def stage(self, name: str) -> ContextManager[Any]:
        return self._timed_stage(name)

    def count_spmv(self, nnz: int, cols: int = 1) -> None:
        self.ops.count_spmv(nnz, cols)

    def count_gemm(self, m: int, k: int, n: int) -> None:
        self.ops.count_gemm(m, k, n)

    def count_qr(self, m: int, n: int) -> None:
        self.ops.count_qr(m, n)

    def count_svd(self, m: int, n: int) -> None:
        self.ops.count_svd(m, n)

    def count_topk(self, candidates: int) -> None:
        self.ops.count_topk(candidates)

    def count_ann_probe(self, cells: int) -> None:
        self.ops.count_ann_probe(cells)

    def count_ann_candidates(self, candidates: int) -> None:
        self.ops.count_ann_candidates(candidates)

    def count_ooc_copy(self, nbytes: int) -> None:
        # Staging traffic of the out-of-core kernels; reported once per
        # logical apply from the calling thread (a resident RSS sample
        # rides along so peak-RSS watermarks cover mid-solve applies).
        self.ooc_bytes_copied += int(nbytes)
        self.memory.sample()

    def note_array(self, nbytes: int) -> None:
        self.memory.note_array(nbytes)

    def note_workspace(self, nbytes: int) -> None:
        self.memory.note_workspace(nbytes)

    def note_threads(self, n_threads: int) -> None:
        if n_threads > self.threads:
            self.threads = int(n_threads)

    def sample_memory(self) -> None:
        self.memory.sample()

    def report(
        self,
        *,
        method: str,
        dataset: Optional[str] = None,
        dimension: Optional[int] = None,
        seed: Optional[int] = None,
        wall_seconds: Optional[float] = None,
        sections: Optional[Dict[str, Optional[Dict[str, Any]]]] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> RunReport:
        """Freeze the collected data into a :class:`RunReport`.

        ``sections`` attaches the report's optional sections by name (see
        :data:`repro.obs.report.SECTIONS`): ``refresh`` from
        :meth:`refresh_section`, ``ooc`` from :meth:`ooc_section`,
        ``similarity`` from :meth:`similarity_section`.  ``None`` values are
        dropped, so callers can pass a section they may not have.
        """
        self.memory.sample()
        elapsed = (
            wall_seconds
            if wall_seconds is not None
            else time.perf_counter() - self.started
        )
        return RunReport(
            method=method,
            dataset=dataset,
            dimension=dimension,
            seed=seed,
            wall_seconds=float(elapsed),
            stages=self.timer.stages(),
            ops=self.ops.to_dict(),
            memory=self.memory.to_dict(),
            threads=self.threads,
            sections={
                name: dict(section)
                for name, section in (sections or {}).items()
                if section is not None
            },
            metadata=dict(metadata or {}),
        )

    def ooc_section(self, *, budget_mb: Optional[float]) -> Dict[str, Any]:
        """The RunReport ``ooc`` section for an out-of-core fit.

        ``budget_mb`` is the configured staging budget (``None`` means the
        module default was in effect); ``bytes_copied_in`` is the total
        block-copy traffic from the mapped CSR into resident staging
        buffers, and ``peak_rss_bytes`` the sampler's high-water mark over
        the run.
        """
        self.memory.sample()
        return {
            "budget_mb": None if budget_mb is None else float(budget_mb),
            "bytes_copied_in": int(self.ooc_bytes_copied),
            "peak_rss_bytes": int(self.memory.peak_rss_bytes),
        }

    def similarity_section(
        self, *, mode: str, side: str, tau: int, sources: int, block_sources: int
    ) -> Dict[str, Any]:
        """The RunReport ``similarity`` section for an MHS/MHP query run.

        ``matvecs`` is read off this collector's sparse-matvec counter, so
        call it after the queries finish and with the collection window
        scoped to the query workload (the CLI's ``repro similar --profile``
        does exactly that).
        """
        return {
            "mode": mode,
            "side": side,
            "tau": int(tau),
            "sources": int(sources),
            "block_sources": int(block_sources),
            "matvecs": int(self.ops.sparse_matvecs),
        }

    def refresh_section(
        self, refresh: Optional[Dict[str, Any]]
    ) -> Optional[Dict[str, Any]]:
        """The RunReport ``refresh`` section of a refit, or ``None``.

        ``refresh`` is the fit's ``metadata["refresh"]`` (``None`` after a
        cold refit, which has no section).  This collector's sparse-matvec
        count goes under ``warm_matvecs`` or ``cold_matvecs`` by the refit's
        mode, so call it with the collection window scoped to the refit.
        """
        if refresh is None:
            return None
        section = {**refresh, "warm_matvecs": None, "cold_matvecs": None}
        key = "warm_matvecs" if refresh["mode"] == "warm" else "cold_matvecs"
        section[key] = int(self.ops.sparse_matvecs)
        return section


#: The module-wide no-op collector (singleton; identity-tested in the suite).
NULL = NullCollector()

_active: NullCollector = NULL


def active() -> NullCollector:
    """The collector instrumented call sites should report to."""
    return _active


@contextmanager
def collect(
    collector: Optional[ProfileCollector] = None,
) -> Iterator[ProfileCollector]:
    """Activate a profiling collector for the duration of the block.

    Nested activations are allowed; the previous collector (possibly the
    no-op) is restored on exit.
    """
    global _active
    if collector is None:
        collector = ProfileCollector()
    previous = _active
    _active = collector
    try:
        yield collector
    finally:
        _active = previous
