"""Workspace-reusing blocked kernels for the ``W (W^T Q)`` hot path.

Every GEBE-family solver spends its time in the PMF-weighted power series
of the Gram apply ``(W W^T) @ Q`` (each hop expanded as ``W @ (W^T @ Q)``,
the paper's re-association trick) and, for GEBE^p, in the single products
``W @ X`` and ``W^T @ X`` of the randomized SVD.  The reference
implementations in :mod:`repro.linalg.ops` allocate fresh ``|U| x k`` and
``|V| x k`` temporaries on every hop of every iteration; at scale that is
thousands of multi-megabyte allocations per fit.

This module provides the production kernels:

* :class:`SparseKernel` — in-place ``W @ X`` / ``W^T @ X`` against one fixed
  CSR matrix, writing into preallocated buffers through scipy's low-level
  ``csr_matvecs`` / ``csc_matvecs`` routines (the exact routines scipy's own
  ``@`` dispatches to, so results are bit-identical to the reference path).
  The transpose product deliberately uses the CSC *scatter* form on ``W``'s
  own arrays rather than a materialized transpose: the scatter streams the
  large side sequentially and keeps the small side resident in cache.
* :class:`GramKernel` — the blocked PMF-series apply on top of it, with
  ping-pong hop buffers, ``out=``-style fused scale-and-add, and
  column-chunked application for blocks wider than
  :attr:`DtypePolicy.block_cols`.

Both kernels shard their applies across the thread pool of
:mod:`repro.linalg.parallel` when the policy's
:class:`~repro.linalg.parallel.ExecPolicy` allows (scipy's sparsetools
routines release the GIL): ``W @ X`` by nnz-balanced **row ranges** of the
CSR (disjoint output rows), ``W^T @ X`` and the PMF series by **column
chunks** of ``X`` (disjoint output columns, per-slot staging and hop
buffers).  One thread — or any apply below the auto-tune threshold — is the
exact legacy serial path.

Bit-identity with the reference float64 path is a hard invariant (pinned by
the hypothesis suite) *regardless of thread count*: per output element both
paths perform the same floating-point operations in the same order.
Observability counters are likewise identical — every logical apply is
counted exactly once, in the calling thread, never per shard; worker threads
never touch the collector (it is not thread-safe).

**Out-of-core applies.** Both kernels also accept a memory-mapped
:class:`~repro.graph.store.StoreCSR` in place of a resident scipy matrix.
Row shards (``W @ X``) and the CSC scatter (``W^T @ X``) then stream the
CSR arrays in row blocks whose nnz slices fit the policy's
``ooc_budget_mb``, block-copying each slice once into a reusable resident
:class:`~repro.graph.store.OocWorkspace` and dropping the mapped pages
afterwards, so the kernel's resident share of the graph is bounded by the
budget instead of the file size.  The budget is split evenly across
executor threads (each worker owns one workspace), and the blocked sweeps
perform, per output element, exactly the serial resident path's operations
in the same order — bit-identity holds at every thread count *and* budget.
Out-of-core runs require the float64 compute policy (stores hold float64
data; a converting copy would defeat the memory bound).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools  # in-place csr/csc_matvecs (scipy >= 1.7)

from ..graph.store import DEFAULT_OOC_BUDGET_MB, OocWorkspace, row_blocks
from ..obs import active as _obs_active
from .parallel import ParallelExecutor, column_shards, row_shards
from .policy import DtypePolicy

__all__ = ["SparseKernel", "GramKernel"]


class SparseKernel:
    """In-place ``W @ X`` and ``W^T @ X`` for one fixed sparse matrix.

    Parameters
    ----------
    w:
        The sparse matrix, converted to CSR in the policy's compute dtype
        (shared storage when the input already matches).
    policy:
        The :class:`DtypePolicy`; ``None`` means the default policy.
    notify_obs:
        Report workspace allocations to the observability layer.  Per-slot
        kernels inside :class:`GramKernel` run on worker threads and pass
        ``False`` — the collector is not thread-safe, and the owning kernel
        accounts for their workspace from the calling thread instead.

    Notes
    -----
    The kernel does **not** report operation counts to the observability
    layer — callers own the accounting, mirroring how the reference
    implementations count at the semantic (Gram apply / operator apply)
    level.  :attr:`threads_used` records the widest sharding any apply on
    this kernel actually used (1 = every apply ran serial).

    With ``reuse=True`` the result lives in an internal buffer that is
    overwritten by the next call on the same kernel; callers must consume it
    before issuing another product.
    """

    def __init__(
        self,
        w: sp.spmatrix,
        policy: Optional[DtypePolicy] = None,
        *,
        notify_obs: bool = True,
    ):
        self.policy = policy if policy is not None else DtypePolicy()
        self.dtype = self.policy.compute_dtype
        if sp.issparse(w):
            self.w = sp.csr_matrix(w, dtype=self.dtype)
            self._ooc = False
        else:
            # A StoreCSR (duck-typed: indptr/indices/data/shape/nnz) — the
            # out-of-core path.  No conversion: a converting copy would
            # materialize the whole matrix and defeat the memory bound.
            if np.dtype(w.dtype) != self.dtype:
                raise ValueError(
                    "out-of-core kernels require the float64 compute policy "
                    f"(store data is {w.dtype}, policy computes in "
                    f"{self.dtype})"
                )
            self.w = w
            self._ooc = True
        budget_mb = (
            self.policy.ooc_budget_mb
            if self.policy.ooc_budget_mb is not None
            else DEFAULT_OOC_BUDGET_MB
        )
        # Fixed per-workspace share: the aggregate staging of this kernel
        # never exceeds the budget at any shard count the executor picks.
        self._ooc_slot_budget = int(
            budget_mb * 1024 * 1024 / max(1, self.policy.n_threads)
        )
        self._ooc_ws: List[OocWorkspace] = []
        self._flat: Dict[str, np.ndarray] = {}
        self._notify_obs = notify_obs
        self._exec = ParallelExecutor(self.policy.exec_policy)
        self.threads_used = 1

    @property
    def shape(self) -> Tuple[int, int]:
        return self.w.shape

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    def _buf(self, name: str, rows: int, cols: int) -> np.ndarray:
        """A C-contiguous ``rows x cols`` view of a grow-only flat buffer."""
        needed = rows * cols
        flat = self._flat.get(name)
        if flat is None or flat.size < needed:
            flat = np.empty(needed, dtype=self.dtype)
            self._flat[name] = flat
            if self._notify_obs:
                _obs_active().note_array(flat.nbytes)
        return flat[:needed].reshape(rows, cols)

    def workspace_bytes(self) -> int:
        """Total bytes currently held in reusable buffers."""
        return sum(flat.nbytes for flat in self._flat.values()) + sum(
            ws.workspace_bytes() for ws in self._ooc_ws
        )

    def _ooc_workspaces(self, count: int) -> List[OocWorkspace]:
        """``count`` staging workspaces, allocated on the calling thread."""
        while len(self._ooc_ws) < count:
            self._ooc_ws.append(
                OocWorkspace(
                    self._ooc_slot_budget, self.w.indices.dtype, self.dtype
                )
            )
        return self._ooc_ws[:count]

    def ooc_bytes_copied(self) -> int:
        """Total bytes staged from the mmap-backed CSR so far (0 resident)."""
        return sum(ws.bytes_copied for ws in self._ooc_ws)

    def _as_input(self, block: np.ndarray, name: str) -> np.ndarray:
        """``block`` as a C-contiguous array of the compute dtype."""
        block = np.asarray(block)
        if block.dtype == self.dtype and block.flags.c_contiguous:
            return block
        staged = self._buf(name, block.shape[0], block.shape[1])
        staged[...] = block
        return staged

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------
    def _csr_into(self, x: np.ndarray, out: np.ndarray) -> None:
        """``out += W @ x`` for pre-zeroed C-contiguous ``out``.

        Row-sharded across the executor when the apply is large enough:
        each worker runs ``csr_matvecs`` over a contiguous nnz-balanced row
        range, passing ``indptr[lo:hi+1]`` (absolute offsets into the full
        ``indices``/``data``) and writing ``out[lo:hi]``.  Output rows are
        disjoint and each element sees the exact serial multiply/add order,
        so the result is bit-identical for every shard count.
        """
        w = self.w
        m, n = w.shape
        cols = x.shape[1]
        if self._ooc:
            self._csr_into_ooc(x, out)
            return
        n_shards = self._exec.shards_for(w.nnz * cols, m)
        if n_shards == 1:
            _sparsetools.csr_matvecs(
                m, n, cols, w.indptr, w.indices, w.data, x.ravel(), out.ravel()
            )
            return
        self.threads_used = max(self.threads_used, n_shards)
        xr = x.ravel()
        tasks: List[Callable[[], None]] = [
            (
                lambda lo=lo, hi=hi: _sparsetools.csr_matvecs(
                    hi - lo,
                    n,
                    cols,
                    w.indptr[lo : hi + 1],
                    w.indices,
                    w.data,
                    xr,
                    out[lo:hi].ravel(),
                )
            )
            for lo, hi in row_shards(w.indptr, n_shards)
        ]
        self._exec.run(tasks)

    def _csr_into_ooc(self, x: np.ndarray, out: np.ndarray) -> None:
        """The out-of-core ``out += W @ x``: budget-bounded row blocks.

        Identical sharding decision to the resident path; within each shard
        the rows stream through the workspace in budget-sized blocks.  The
        rebased block indptr plus copied nnz slice feed ``csr_matvecs``
        exactly the arrays the resident call sees for those rows, so every
        output row is bit-identical at any block size.
        """
        w = self.w
        m, n = w.shape
        cols = x.shape[1]
        n_shards = self._exec.shards_for(w.nnz * cols, m)
        shards = row_shards(w.indptr, n_shards) if n_shards > 1 else [(0, m)]
        workspaces = self._ooc_workspaces(len(shards))
        xr = x.ravel()

        def run_range(ws: OocWorkspace, lo: int, hi: int) -> None:
            for r0, r1 in row_blocks(w.indptr, lo, hi, ws.max_nnz):
                ipb, ixb, db = ws.stage(w, r0, r1)
                _sparsetools.csr_matvecs(
                    r1 - r0, n, cols, ipb, ixb, db, xr, out[r0:r1].ravel()
                )

        if len(shards) == 1:
            run_range(workspaces[0], 0, m)
            return
        self.threads_used = max(self.threads_used, len(shards))
        self._exec.run(
            [
                (lambda ws=ws, lo=lo, hi=hi: run_range(ws, lo, hi))
                for ws, (lo, hi) in zip(workspaces, shards)
            ]
        )

    def _csc_into(
        self, x: np.ndarray, out: np.ndarray, ws: Optional[OocWorkspace] = None
    ) -> None:
        """``out += W.T @ x`` (CSC scatter) for pre-zeroed ``out``, serial.

        The out-of-core variant sweeps row blocks in ascending order, which
        is the exact accumulation order of the resident full-matrix scatter
        — bit-identical at any budget.
        """
        w = self.w
        m, n = w.shape
        cols = x.shape[1]
        if not self._ooc:
            _sparsetools.csc_matvecs(
                n, m, cols, w.indptr, w.indices, w.data, x.ravel(), out.ravel()
            )
            return
        for r0, r1 in row_blocks(w.indptr, 0, m, ws.max_nnz):
            ipb, ixb, db = ws.stage(w, r0, r1)
            _sparsetools.csc_matvecs(
                n, r1 - r0, cols, ipb, ixb, db, x[r0:r1].ravel(), out.ravel()
            )

    def matmul(self, block: np.ndarray, *, reuse: bool = False) -> np.ndarray:
        """``W @ block`` for a dense ``|V| x c`` block."""
        w = self.w
        block = np.asarray(block)
        if block.ndim == 1:
            return self.matmul(block.reshape(-1, 1), reuse=reuse)[:, 0]
        x = self._as_input(block, "in_v")
        m, n = w.shape
        cols = x.shape[1]
        out = self._buf("out_u", m, cols) if reuse else np.empty((m, cols), self.dtype)
        out.fill(0.0)
        self._csr_into(x, out)
        return out

    def t_matmul(self, block: np.ndarray, *, reuse: bool = False) -> np.ndarray:
        """``W.T @ block`` for a dense ``|U| x c`` block (CSC scatter)."""
        w = self.w
        block = np.asarray(block)
        if block.ndim == 1:
            return self.t_matmul(block.reshape(-1, 1), reuse=reuse)[:, 0]
        m, n = w.shape
        cols = block.shape[1]
        out = self._buf("out_v", n, cols) if reuse else np.empty((n, cols), self.dtype)
        # W.T viewed as an n x m CSC matrix shares W's CSR arrays verbatim;
        # csc_matvecs is the routine scipy's own `w.T @ block` dispatches to.
        n_shards = self._exec.shards_for(w.nnz * cols, cols)
        if n_shards == 1:
            x = self._as_input(block, "in_u")
            out.fill(0.0)
            self._csc_into(
                x, out, ws=self._ooc_workspaces(1)[0] if self._ooc else None
            )
            return out
        # Column shards: each worker owns a disjoint column slice of the
        # output.  The scatter needs C-contiguous column slices, so every
        # shard stages through its own (grow-only, main-thread-allocated)
        # in/out buffers.  Per column the scatter's accumulation order does
        # not depend on which columns share the call — bit-identical.
        self.threads_used = max(self.threads_used, n_shards)
        shards = column_shards(cols, n_shards)
        staged = [
            (self._buf(f"t_in_{i}", m, hi - lo), self._buf(f"t_out_{i}", n, hi - lo))
            for i, (lo, hi) in enumerate(shards)
        ]
        workspaces = self._ooc_workspaces(len(shards)) if self._ooc else None

        def run_shard(i: int, lo: int, hi: int) -> None:
            xin, xout = staged[i]
            xin[...] = block[:, lo:hi]
            xout.fill(0.0)
            self._csc_into(
                xin, xout, ws=workspaces[i] if workspaces is not None else None
            )
            out[:, lo:hi] = xout

        self._exec.run(
            [
                (lambda i=i, lo=lo, hi=hi: run_shard(i, lo, hi))
                for i, (lo, hi) in enumerate(shards)
            ]
        )
        return out


class GramKernel:
    """Workspace-reusing blocked PMF-series apply.

    Implements the hot operation of Algorithm 1,
    :meth:`pmf_apply` — ``sum_l weights[l] (W W^T)^l @ block`` — against
    preallocated ping-pong buffers.

    Blocks wider than ``policy.block_cols`` are processed in column chunks so
    workspace memory stays bounded by ``O((|U| + |V|) * block_cols)`` no
    matter how large ``k`` grows.  Results are freshly allocated (they are
    the operator API's return values); every intermediate is reused.

    When the policy's executor allows, large applies distribute their column
    chunks round-robin over per-slot :class:`SparseKernel` instances — each
    slot shares ``W``'s CSR storage but owns its own ping-pong hop buffers
    and writes a disjoint column slice of the output.  Slot kernels run
    serial (no nested sharding) and never touch the obs collector; sharded
    applies narrow the chunk width to ``ceil(cols / n_slots)`` when a single
    ``block_cols`` chunk would cover the whole block.  Columns evolve
    independently through the whole hop recurrence, so results stay
    bit-identical to the serial path for every thread count.
    """

    def __init__(self, w: sp.spmatrix, policy: Optional[DtypePolicy] = None):
        self.policy = policy if policy is not None else DtypePolicy()
        self.kernel = SparseKernel(w, self.policy)
        self.dtype = self.kernel.dtype
        self._exec = ParallelExecutor(self.policy.exec_policy)
        self._slots: List[SparseKernel] = []
        self._threads_used = 1
        self._ooc_reported = 0

    @property
    def threads_used(self) -> int:
        """Widest sharding any apply on this kernel actually used."""
        return max(self._threads_used, self.kernel.threads_used)

    def workspace_bytes(self) -> int:
        """Total reusable-buffer bytes, summed across all per-slot pools."""
        return self.kernel.workspace_bytes() + sum(
            slot.workspace_bytes() for slot in self._slots
        )

    def ooc_bytes_copied(self) -> int:
        """Total bytes staged from a mmap-backed CSR across all slots."""
        return self.kernel.ooc_bytes_copied() + sum(
            slot.ooc_bytes_copied() for slot in self._slots
        )

    def _report_ooc(self, collector) -> None:
        """Report staging traffic accrued since the last logical apply."""
        if not self.kernel._ooc:
            return
        total = self.ooc_bytes_copied()
        delta = total - self._ooc_reported
        if delta:
            collector.count_ooc_copy(delta)
            self._ooc_reported = total

    def _slot_kernels(self, count: int) -> List[SparseKernel]:
        """``count`` serial kernels sharing W's storage, one per worker slot."""
        while len(self._slots) < count:
            slot_policy = self.policy.with_threads(1)
            if self.kernel._ooc:
                # Slot kernels run concurrently; each gets the same 1/n_threads
                # share of the budget the owning kernel's own shards would.
                total_mb = (
                    self.policy.ooc_budget_mb
                    if self.policy.ooc_budget_mb is not None
                    else DEFAULT_OOC_BUDGET_MB
                )
                slot_policy = slot_policy.with_ooc_budget(
                    total_mb / max(1, self.policy.n_threads)
                )
            self._slots.append(
                SparseKernel(self.kernel.w, slot_policy, notify_obs=False)
            )
        return self._slots[:count]

    def _chunks(self, cols: int, width: Optional[int] = None):
        width = self.policy.block_cols if width is None else width
        for lo in range(0, cols, width):
            yield lo, min(cols, lo + width)

    def _plan(self, cols: int) -> Tuple[int, int]:
        """``(n_slots, chunk_width)`` for one logical apply over ``cols``."""
        n_slots = self._exec.shards_for(self.kernel.w.nnz * cols, cols)
        if n_slots <= 1:
            return 1, self.policy.block_cols
        return n_slots, min(self.policy.block_cols, -(-cols // n_slots))

    def _run_sharded(
        self,
        n_slots: int,
        width: int,
        cols: int,
        chunk_fn: Callable[[SparseKernel, int, int], None],
    ) -> None:
        """Distribute column chunks round-robin over per-slot kernels."""
        self._threads_used = max(self._threads_used, n_slots)
        chunks = list(self._chunks(cols, width))
        slots = self._slot_kernels(n_slots)

        def run_slot(kernel: SparseKernel, mine) -> None:
            for lo, hi in mine:
                chunk_fn(kernel, lo, hi)

        self._exec.run(
            [
                (lambda kernel=kernel, mine=mine: run_slot(kernel, mine))
                for kernel, mine in (
                    (slots[i], chunks[i::n_slots]) for i in range(n_slots)
                )
                if mine
            ]
        )

    def _pmf_chunk(
        self,
        kernel: SparseKernel,
        block: np.ndarray,
        weights: np.ndarray,
        acc: np.ndarray,
        lo: int,
        hi: int,
    ) -> None:
        m = kernel.shape[0]
        c = hi - lo
        acc_view = acc[:, lo:hi]
        cur = kernel._buf("hop_a", m, c)
        cur[...] = block[:, lo:hi]
        np.multiply(cur, weights[0], out=acc_view)
        scratch = kernel._buf("hop_scratch", m, c)
        use_b = True
        for omega_ell in weights[1:]:
            v = kernel.t_matmul(cur, reuse=True)
            nxt = kernel._buf("hop_b" if use_b else "hop_a", m, c)
            nxt.fill(0.0)
            kernel._csr_into(v, nxt)
            # Same two-step rounding as the reference `acc += omega * q`.
            np.multiply(nxt, omega_ell, out=scratch)
            np.add(acc_view, scratch, out=acc_view)
            cur = nxt
            use_b = not use_b

    def pmf_apply(self, block: np.ndarray, weights: Sequence[float]) -> np.ndarray:
        """``H @ block`` with ``H = sum_l weights[l] (W W^T)^l``.

        Bit-identical to :func:`repro.linalg.ops.pmf_weighted_apply` in
        float64 — per element, the same multiply/add sequence in the same
        order — while reusing one set of hop buffers per worker slot across
        all ``tau`` hops (and, through the owning operator, across solver
        iterations).
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        block = np.asarray(block)
        squeeze = block.ndim == 1
        if squeeze:
            block = block.reshape(-1, 1)
        m = self.kernel.shape[0]
        cols = block.shape[1]
        collector = _obs_active()
        acc = np.empty((m, cols), dtype=self.dtype)
        collector.note_array(acc.nbytes)
        hops = weights.size - 1
        if hops:
            # Once per logical apply: 2 matvecs per hop per column, exactly
            # the serial reference's per-chunk-per-hop totals.
            collector.count_spmv(self.kernel.w.nnz, 2 * cols * hops)
        n_slots, width = self._plan(cols)
        if n_slots == 1:
            for lo, hi in self._chunks(cols):
                self._pmf_chunk(self.kernel, block, weights, acc, lo, hi)
        else:
            self._run_sharded(
                n_slots,
                width,
                cols,
                lambda kernel, lo, hi: self._pmf_chunk(
                    kernel, block, weights, acc, lo, hi
                ),
            )
        collector.note_threads(self.threads_used)
        collector.note_workspace(self.workspace_bytes())
        self._report_ooc(collector)
        return acc[:, 0] if squeeze else acc
