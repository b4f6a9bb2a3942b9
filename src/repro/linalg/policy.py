"""Dtype and workspace policy for the linear-algebra hot path.

Every solver in the library funnels its floating-point work through the
blocked kernels in :mod:`repro.linalg.kernels`, which reuse preallocated
ping-pong buffers and in-place sparse products instead of allocating fresh
temporaries on every hop (bit-identical in float64 to the
allocation-per-call reference products of :mod:`repro.linalg.ops`, pinned
by the property suite).  :class:`DtypePolicy` is the
single configuration object that decides how those kernels run:

* ``compute`` — the dtype of the blocked ``W (W^T Q)`` applies.  The default
  ``"float64"`` reproduces the paper's arithmetic exactly; ``"float32"``
  halves the memory traffic of the memory-bound sparse products (the usual
  win on large graphs) at the cost of ~7 decimal digits.
  The numerically sensitive reductions (QR re-orthonormalization,
  Rayleigh-Ritz projections) always run in float64, so a float32 compute
  policy still orthonormalizes and extracts Ritz values in full precision.
* ``block_cols`` — column-chunk width for very wide blocks, bounding
  workspace memory at ``O((|U| + |V|) * block_cols)``.

The policy is threaded through :class:`~repro.linalg.ops.MatrixFreeOperator`,
:class:`~repro.linalg.ops.ProximityOperator`, the Krylov eigensolver, and the
randomized SVD via solver configuration — not per-call flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .parallel import ExecPolicy

__all__ = ["DtypePolicy"]

_COMPUTE_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class DtypePolicy:
    """How the linalg substrate runs: dtype, chunking, threads, staging.

    Attributes
    ----------
    compute:
        Dtype of the blocked sparse applies: ``"float64"`` (default, exact
        reproduction) or ``"float32"`` (opt-in fast path).
    block_cols:
        Column-chunk width for blocks wider than this; bounds workspace
        memory for very large ``k``.
    exec_policy:
        Thread count and auto-tune threshold for the parallel kernel
        executor (:class:`~repro.linalg.parallel.ExecPolicy`).  Resolved
        from the environment (``REPRO_NUM_THREADS``) at construction time;
        one thread is the exact legacy execution path.  Parallelism never
        changes results or operation counts, so it deliberately does not
        appear in :meth:`describe` — the same policy slug covers every
        thread count.
    ooc_budget_mb:
        Resident staging budget (MiB) for out-of-core applies against a
        memory-mapped :class:`~repro.graph.store.StoreCSR`.  ``None``
        (default) uses :data:`repro.graph.store.DEFAULT_OOC_BUDGET_MB`.
        The budget bounds the kernels' *staging copies* — blocks of the
        CSR arrays copied into reusable resident buffers — and is split
        evenly across executor threads, so the aggregate staging held by
        one kernel never exceeds it at any shard count.  Like threads, it
        never changes results (bit-identity is budget-independent), so it
        does not appear in :meth:`describe`.  Ignored for resident
        matrices.
    """

    compute: str = "float64"
    block_cols: int = 256
    exec_policy: ExecPolicy = field(default_factory=ExecPolicy.from_env)
    ooc_budget_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if self.compute not in _COMPUTE_DTYPES:
            raise ValueError(
                f"compute dtype must be one of {_COMPUTE_DTYPES}, got {self.compute!r}"
            )
        if self.block_cols < 1:
            raise ValueError("block_cols must be positive")
        if self.ooc_budget_mb is not None and not self.ooc_budget_mb > 0:
            raise ValueError(
                f"ooc_budget_mb must be positive, got {self.ooc_budget_mb!r}"
            )

    @property
    def compute_dtype(self) -> np.dtype:
        """The compute dtype as a numpy dtype object."""
        return np.dtype(self.compute)

    @property
    def is_exact(self) -> bool:
        """Whether the compute dtype matches the float64 reference path."""
        return self.compute == "float64"

    @property
    def n_threads(self) -> int:
        """Worker threads of the kernel executor (1 = serial legacy path)."""
        return self.exec_policy.n_threads

    def with_threads(self, n_threads: int) -> "DtypePolicy":
        """A copy of this policy pinned to ``n_threads`` executor threads."""
        return replace(
            self, exec_policy=replace(self.exec_policy, n_threads=n_threads)
        )

    def with_ooc_budget(self, ooc_budget_mb: Optional[float]) -> "DtypePolicy":
        """A copy of this policy with the out-of-core staging budget replaced."""
        return replace(self, ooc_budget_mb=ooc_budget_mb)

    @classmethod
    def default(cls) -> "DtypePolicy":
        """Float64 compute with workspace-reusing kernels (the default)."""
        return cls()

    @classmethod
    def float32(cls) -> "DtypePolicy":
        """Float32 compute, float64 accumulation, workspace kernels."""
        return cls(compute="float32")

    def describe(self) -> str:
        """A short slug for reports, e.g. ``"float64/workspace"``.

        The ``/workspace`` suffix names the kernel path; it is the only one,
        and it stays in the slug so bench cell keys match older snapshots.
        """
        return f"{self.compute}/workspace"
