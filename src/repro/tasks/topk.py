"""Batched top-k retrieval over fitted embeddings (the serving path).

Training reads the graph once; a recommendation service reads the
*embeddings* forever.  The paper's Top-N protocol (Section 6.3) and every
factorization-style baseline share the same read-out shape: score one side's
embedding rows against the whole other side (``U[u] . V[v]``), hide the
training edges, keep the best ``n``.  Done one user at a time that is one
GEMV plus one partial sort per user — the Python and BLAS call overhead
dwarfs the arithmetic at scale.

:class:`TopKEngine` is the one engine for every artifact and every
candidate source: float embeddings or per-column quantized codes (which
differ only in how the stored codes decode to float64), with or without an
IVF index (:class:`repro.ann.IVFIndex`).  Users are answered
``block_rows`` at a time, each block in three steps:

1. **Candidates**, from one of two sources.

   * **Float32 sweep and margin** (no index, or one probing every cell).
     One ``U_block @ V.T`` GEMM in float32 over a float32 ``V.T`` staged
     once at construction, in blocks of :data:`STAGE_ROWS` item rows (half
     the bytes of a float64 staging, and no temporary the size of ``V``).
     The GEMM is column-sharded across the thread pool of
     :mod:`repro.linalg.parallel` when the
     :class:`~repro.linalg.DtypePolicy`'s threads allow (``--threads``
     and ``REPRO_NUM_THREADS`` apply as they do to the training kernels).
     The training edges are masked straight from the graph's
     ``indptr``/``indices`` arrays with one vectorized gather
     (:func:`csr_pairs`).  The sweep is within ``B_i`` of the exact score
     of user ``i``: ``B_i = sum_j |u_ij| colerr_j`` plus a subnormal floor,
     where ``colerr_j`` is the staging error of column ``j`` (at most half a
     float32 ulp of its maximum for float codes, measured for quantized
     ones) plus the float32 cast of ``u`` and the length-``k``
     accumulation.  Every item whose approximate score reaches within
     ``2 B_i`` of a lower bound on the row's ``n``-th best (the ``n``-th
     best maximum of :data:`GROUPS_PER_N` ``* n`` strided item groups) is
     a candidate of that row; anything below is beaten by ``n`` items in
     exact score.  A block whose sweep could overflow float32 (``sum_j
     |u_ij| colmax_j`` near float32's range, or a ``u`` or column beyond
     it) skips the sweep and reranks every item instead.
   * **Partial IVF probe** (an index probing fewer cells than it has).
     The index proposes the items of each row's ``nprobe`` best cells
     (:meth:`repro.ann.IVFIndex.probe`).  Such an engine never sweeps, so
     it stages no ``V.T``.  Approximation lives only here: recall is a
     measured knob.

2. **Exact rerank** — each row's own candidates are scored again by
   :func:`rerank`: a fixed-order float64 dot per (row, item) pair of the
   decoded rows, the same CSR masking, and
3. :func:`~repro.core.selection.select_topn`, the ``(score desc, id asc)``
   order of every read-out.

Results stream block by block; the full ``num_users x num_items`` score
matrix is never materialized.  Peak extra memory is one reusable
``block_rows x num_items`` float32 score buffer (reported through the obs
workspace watermark), its candidate mask, and the rerank's pairs, gathered
:data:`RERANK_ELEMENTS` row elements at a time.  The engine works out
``block_rows`` from the catalog width: :data:`DEFAULT_BLOCK_ROWS`, or fewer
so that the buffer stays within :data:`SCORE_BUFFER_BYTES` however wide
the item side.

Observability: every count a block makes goes to the active collector and
to the engine's own :attr:`TopKEngine.ops`, whose deltas ``/metrics``
reports.  A swept block counts two GEMMs (``count_gemm``: the sweep and the
rerank; one when it skips the sweep) and its coverage (``count_topk``); a
probed block counts its probed cells (``count_ann_probe``) and its
candidates (``count_ann_candidates``: every item under a full probe), and a
partial probe one GEMM, the routing of its rows to cells.  The score buffer
feeds the workspace watermark.  Counting happens once per logical block in
the calling thread — worker threads never touch the collector.
"""

from __future__ import annotations

import copy
import mmap
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.quantize import QUANT_DTYPES
from ..core.selection import select_topn
from ..graph import BipartiteGraph
from ..linalg.parallel import column_shards, run_tasks
from ..linalg.policy import DtypePolicy
from ..obs import OpCounter
from ..obs import active as _obs_active

__all__ = [
    "TopKEngine",
    "DEFAULT_BLOCK_ROWS",
    "SCORE_BUFFER_BYTES",
    "STAGE_ROWS",
    "RERANK_ELEMENTS",
    "GROUPS_PER_N",
    "check_exclude",
    "csr_pairs",
    "heap_bytes",
    "rerank",
]

#: Users per GEMM up to a 65 536-item catalog: enough rows to amortize
#: per-block Python and BLAS dispatch overhead; see docs/SERVING.md for the
#: measured tuning curve.
DEFAULT_BLOCK_ROWS = 256

#: The float32 score buffer's cap, 64 MiB: :data:`DEFAULT_BLOCK_ROWS` rows
#: of a 65 536-item catalog.  Wider catalogs get fewer rows per block.
SCORE_BUFFER_BYTES = 64 << 20

#: Item rows cast per pass while staging the float32 ``V.T``.  A block this
#: size transposes within the cache: staging 200 000 x 32 took 17 ms in
#: 1 024-row blocks against 157 ms for one whole-matrix transpose.
STAGE_ROWS = 1024

#: Row elements gathered per pass of the rerank (128 KiB of float64 a
#: side), so the gathered rows stay bounded whatever the candidate count (a
#: full rerank pairs every row of a block with every item) and are served
#: from the allocator's heap.  Whole-block gathers of a 256-row block were
#: fresh memory maps, page-faulted on every block: 3.9 against 1.2 ms per
#: block of the ``dblp`` stand-in at n = 30.
RERANK_ELEMENTS = 1 << 14

#: Item groups per listed item when bounding each row's n-th best sweep
#: score.  One strided max-reduction and a sort of the group maxima replace
#: an ``np.partition`` of the block, which degrades on rows holding many
#: equal scores (items with identical rows, such as the all-zero rows of
#: items without training edges): 41 ms against 1.8 ms on a 256 x 5 200
#: block of the ``mag`` stand-in, and 0.39 against 0.16 ms on one
#: 200 000-item row.  Top items that share a group lower the bound, adding
#: about ``n / 16`` candidates to a row on average.
GROUPS_PER_N = 8

_EPS32 = float(np.finfo(np.float32).eps)

#: A row whose ``sum_j |u_ij| (colmax_j + 1/2)`` reaches this may overflow
#: a float32 cast of ``u`` or partial sum of the sweep (float32 ends just
#: below 2^128).
_SWEEP_LIMIT = 2.0 ** 126


def _mapped(array) -> bool:
    """Whether ``array`` views a file mapping (``np.load(mmap_mode=...)``).

    Walks the ``base`` chain: ``np.asarray`` of a memmap is a plain
    ndarray, but its memory is still the mapping's.
    """
    while array is not None:
        if isinstance(array, mmap.mmap):
            return True
        array = getattr(array, "base", None)
    return False


def heap_bytes(*arrays) -> int:
    """Bytes ``arrays`` hold on the heap (file-mapped arrays and ``None``
    count zero: their pages live in the shared OS page cache)."""
    return sum(a.nbytes for a in arrays if a is not None and not _mapped(a))


def _decode(codes: np.ndarray, scales: Optional[np.ndarray], index) -> np.ndarray:
    """The float64 values of ``codes[index]`` (``scales`` None: float codes)."""
    rows = codes[index]
    return rows if scales is None else rows.astype(np.float64) * scales


def csr_pairs(
    indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, value)`` arrays of the CSR rows ``keys`` (row ``i`` for
    ``keys[i]``, values in stored order).

    One vectorized gather — the ragged rows become flat pairs without a
    Python-level loop: a block's training edges (``graph.w``'s arrays) and
    a probe's inverted lists (:mod:`repro.ann.ivf`) alike.
    """
    starts = indptr[keys]
    counts = indptr[keys + 1] - starts
    rows = np.arange(keys.size).repeat(counts)
    # Absolute CSR positions: starts[i] + arange(counts[i]), flattened.
    shift = (starts - counts.cumsum() + counts).repeat(counts)
    return rows, indices[np.arange(rows.size) + shift]


def check_exclude(
    exclude: Optional[BipartiteGraph], users: np.ndarray, num_items: int
) -> None:
    """Every masked ``(user, item)`` index must land inside the scores.

    The exclusion graph may be *smaller* than the embeddings (e.g. a
    core-filtered training graph scored with embeddings fit elsewhere) —
    mirroring the per-user path, which only ever asks for the neighbors of
    users it scores — but never larger on the item side, and it must cover
    every requested user row.
    """
    if exclude is None:
        return
    if exclude.num_v > num_items:
        raise ValueError(
            f"exclusion graph has {exclude.num_v} items but the "
            f"embeddings score only {num_items}"
        )
    if users.size and int(users.max()) >= exclude.num_u:
        raise ValueError(
            f"user {int(users.max())} outside the exclusion graph's "
            f"{exclude.num_u} rows"
        )


def rerank(
    u_rows: np.ndarray,
    v: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    n: int,
    masked=None,
    v_scales: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-``n`` of each row's own candidates: ``(items, scores)``.

    ``u_rows`` (``b x k``) are float64 query rows; ``(rows, cols)`` the
    candidate ``(row, item)`` pairs, row-major with items ascending inside
    a row (so the id tie-break is the global one); ``v`` the item codes
    (float64 values, or codes times ``v_scales``); ``masked`` selects the
    pairs that are training edges (a mask or positions into the pairs),
    scored ``-inf``.  The result is ``(b, n)``: a row with fewer than ``n``
    candidates is right-padded with item ``-1`` and score ``-inf``.

    ``einsum`` (no ``optimize``) accumulates every dot in ascending
    dimension order whatever the operand shapes, so a score is a pure
    function of its two rows — the same bits in every block, candidate set
    and thread count, where a BLAS GEMM's summation order (and last bit)
    follows the operand shapes.  Pairs are scored :data:`RERANK_ELEMENTS`
    row elements at a time, which bounds the gathered rows however many
    candidates there are.
    """
    b, k = u_rows.shape
    exact = np.empty(rows.size)
    step = max(1, RERANK_ELEMENTS // max(k, 1))
    for lo in range(0, rows.size, step):
        pairs = slice(lo, lo + step)
        exact[pairs] = np.einsum(
            "pk,pk->p", u_rows[rows[pairs]], _decode(v, v_scales, cols[pairs])
        )
    if masked is not None:
        exact[masked] = -np.inf
    # Each row's candidates side by side, padded: a dense block for
    # select_topn, whose position tie-break is the id tie-break.
    slot = np.arange(rows.size) - rows.searchsorted(rows)
    scores = np.full((b, max(n, int(slot.max(initial=-1)) + 1)), -np.inf)
    items = np.full(scores.shape, -1, dtype=np.int64)
    scores[rows, slot] = exact
    items[rows, slot] = cols
    keep = select_topn(scores, n)
    picked = np.arange(b)[:, None]
    return items[picked, keep], scores[picked, keep]


class TopKEngine:
    """Exact top-``n`` retrieval: candidates, float64 rerank, selection.

    Parameters
    ----------
    u, v:
        The two embedding matrices (``|U| x k`` and ``|V| x k``): float
        values, typically ``result.u`` / ``result.v`` of an
        :class:`~repro.core.base.EmbeddingResult` (see :meth:`from_result`)
        or an artifact's memory-mapped arrays, read as float64 and never
        copied when they already are; or, with ``scales``, per-column codes
        (:mod:`repro.core.quantize`), whose dtype (float16 or int8) names
        the codec.  Only the float32 ``V.T`` sweep operand is staged.
    scales:
        ``(u_scales, v_scales)``: the per-column float64 scales of quantized
        codes (``None``: ``u`` and ``v`` are float values).  The lists are
        then identical to an engine over the dequantized arrays, and the
        scores are the exact fixed-order float64 dots of those arrays.
    index, nprobe:
        An :class:`~repro.ann.IVFIndex` over ``v``'s rows and the cells it
        probes per query row (``None``: every cell).  A full probe is the
        sweep, so its lists and scores are those of the engine without the
        index.  A partial probe takes each block's candidates from the
        index and stages no ``V.T``.
    policy:
        The :class:`~repro.linalg.DtypePolicy` whose threads shard the
        sweep (``None``: default policy, ``REPRO_NUM_THREADS`` threads).
        Its compute dtype does not change top-k: the sweep is always
        float32 and the rerank always float64.

    Users are scored :attr:`block_rows` at a time: the most rows, up to
    :data:`DEFAULT_BLOCK_ROWS`, whose float32 scores fit in
    :data:`SCORE_BUFFER_BYTES` (at least one).

    Notes
    -----
    **Lists.**  A list orders items by the fixed-order float64 dot
    (:func:`rerank`, descending), then by id (ascending), at every block
    size and thread count.  That dot is within about an ulp of a BLAS
    float64 score, so a list can differ from a BLAS-scored reference only
    where two real scores lie within an ulp of each other; where every dot
    is exactly representable (integer embeddings) they agree exactly.

    **A single engine instance must not be shared across threads.**  The
    grow-once score workspace is overwritten by every block, so two threads
    scoring through one instance race on the buffer between scoring and
    selection and can hand each other's scores to ``select_topn`` (pinned by
    ``tests/test_serve_service.py``).  Concurrent callers — the serving tier
    in :mod:`repro.serve` — take one :meth:`clone_for_worker` per thread:
    clones share the immutable embedding arrays (no copy) but own their
    workspace.
    """

    def __init__(
        self,
        u: np.ndarray,
        v: np.ndarray,
        *,
        scales: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        index=None,
        nprobe: Optional[int] = None,
        policy: Optional[DtypePolicy] = None,
    ):
        if scales is None:
            u = np.asarray(u, dtype=np.float64)
            v = np.asarray(v, dtype=np.float64)
            u_scales = v_scales = None
        else:
            u, v = np.asarray(u), np.asarray(v)
            if u.dtype.name not in QUANT_DTYPES or v.dtype != u.dtype:
                raise ValueError(
                    f"quantized codes must share one dtype of {QUANT_DTYPES}, "
                    f"got u {u.dtype} / v {v.dtype}"
                )
            # Copied: the scales are heap bytes the model pins, mapped or not.
            u_scales, v_scales = (np.array(s, dtype=np.float64) for s in scales)
        if u.ndim != 2 or v.ndim != 2:
            raise ValueError("embeddings must be 2-D matrices")
        m, k = v.shape
        if u.shape[1] != k:
            raise ValueError(f"dimension mismatch: u is {u.shape}, v is {v.shape}")
        if scales is not None and (u_scales.shape != (k,) or v_scales.shape != (k,)):
            raise ValueError(
                f"scales must be ({k},), got u {u_scales.shape} / v {v_scales.shape}"
            )
        if index is None and nprobe is not None:
            raise ValueError("nprobe requires an index")
        if index is not None and (index.num_items, index.dimension) != (m, k):
            raise ValueError(
                f"the index covers {index.num_items} items of dimension "
                f"{index.dimension}, the embeddings {m} items of dimension {k}"
            )
        self.policy = policy if policy is not None else DtypePolicy()
        row_bytes = 4 * max(m, 1)  # one float32 score row
        self.block_rows = max(1, min(DEFAULT_BLOCK_ROWS, SCORE_BUFFER_BYTES // row_bytes))
        self._u, self._u_scales = u, u_scales
        self._v, self._v_scales = v, v_scales
        self.index = index
        #: Cells probed per query row (``None`` without an index).
        self.nprobe = None if index is None else index.resolve_nprobe(nprobe)
        # Only a sweep reads the float32 V.T; a partial probe stages none.
        self._vt: Optional[np.ndarray] = None
        if index is None or self.nprobe == index.n_cells:
            self._stage()
        self._scores_flat: Optional[np.ndarray] = None
        self.threads_used = 1
        #: Cumulative (user, candidate) pairs reranked in float64 — the
        #: margin cost, at most the full ``users x items`` product.
        self.reranked_candidates = 0
        #: Cumulative op counts: what every block also reports to the
        #: active collector.  ``/metrics`` reports their deltas.
        self.ops = OpCounter()

    def _stage(self) -> None:
        """Stage the float32 ``V.T`` and the margin's column terms, one pass."""
        m, k = self._v.shape
        self._vt = np.empty((k, m), dtype=np.float32)
        colmax = np.zeros(k, dtype=np.float32)
        measured = None if self._v_scales is None else np.zeros(k)
        for lo in range(0, m, STAGE_ROWS):
            exact = _decode(self._v, self._v_scales, slice(lo, lo + STAGE_ROWS))
            staged = self._vt[:, lo : lo + STAGE_ROWS]
            with np.errstate(over="ignore"):  # inf: that column's colmax
                staged[...] = exact.T
            np.maximum(colmax, np.abs(staged).max(axis=1), out=colmax)
            if measured is not None:
                err = np.abs(staged.T - exact).max(axis=0)
                np.maximum(measured, err, out=measured)
        colmax = colmax.astype(np.float64)
        if measured is None:
            # Round to nearest: within half a float32 ulp of the staged
            # value (at most eps/2 of the column maximum) or, below the
            # normal range, half the smallest subnormal.  Finite for every
            # finite column maximum, FLT_MAX included; inf for a column
            # beyond float32, which sends every block to a full rerank.
            measured = 0.5 * _EPS32 * colmax + 2.0 ** -150
        # Per column: the error weight of the bound (staging, plus the
        # float32 cast of u and the length-k accumulation, ~k eps each with
        # 4x headroom), doubled for the margin's two sides; and the reach
        # weight: the largest magnitude a sweep term can take, plus 1/2 so
        # that a reach under _SWEEP_LIMIT also keeps every |u_ij| under
        # 2^127, from where a float32 cast may round to inf.
        colerr = measured + (4.0 * (k + 8) * _EPS32) * colmax
        self._margin = np.stack([2.0 * colerr, colmax + 0.5], axis=1)
        # The margin's absolute floor, doubled: subnormal casts of u and
        # float32 products that underflow.
        self._margin_floor = 2.0 * ((2.0 ** -140) * float(colmax.sum()) + k * 2.0 ** -148)

    @classmethod
    def from_result(
        cls,
        result,
        *,
        policy: Optional[DtypePolicy] = None,
    ) -> "TopKEngine":
        """An engine over ``result.u`` / ``result.v`` (duck-typed)."""
        return cls(result.u, result.v, policy=policy)

    def clone_for_worker(self) -> "TopKEngine":
        """A worker-private engine sharing this engine's embedding arrays.

        The clone aliases the read-only codes, staged ``V.T`` and index —
        zero copy, so per-thread clones cost only the (lazily grown) score
        workspace — but owns a fresh workspace and counts.
        This is the supported way to score concurrently: one clone per
        thread, never one shared instance (see the class notes on the
        workspace race).
        """
        clone = copy.copy(self)
        clone._scores_flat = None
        clone.threads_used = 1
        clone.reranked_candidates = 0
        clone.ops = OpCounter()
        return clone

    # ------------------------------------------------------------------
    # Shapes and buffers
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        """Rows of the U-side embedding."""
        return self._u.shape[0]

    @property
    def num_items(self) -> int:
        """Rows of the V-side embedding (the candidate set size)."""
        return self._v.shape[0]

    @property
    def dimension(self) -> int:
        """The embedding dimensionality ``k``."""
        return self._v.shape[1]

    def workspace_bytes(self) -> int:
        """Bytes held in the reusable score buffer (0 before first use)."""
        return 0 if self._scores_flat is None else self._scores_flat.nbytes

    def resident_bytes(self) -> int:
        """Heap bytes this engine pins: codes, scales, staging, workspace.

        File-mapped codes are excluded — their pages live in the shared OS
        page cache (``/metrics`` reports this number as
        ``bytes_resident``) — and so is the index's routing state.
        """
        return (
            heap_bytes(self._u, self._u_scales, self._v, self._v_scales, self._vt)
            + self.workspace_bytes()
        )

    def _score_buffer(self, rows: int) -> np.ndarray:
        """A C-contiguous float32 ``rows x num_items`` score block."""
        needed = rows * self.num_items
        if self._scores_flat is None or self._scores_flat.size < needed:
            self._scores_flat = np.empty(
                self.block_rows * self.num_items, dtype=np.float32
            )
            _obs_active().note_array(self._scores_flat.nbytes)
        return self._scores_flat[:needed].reshape(rows, self.num_items)

    def _count(self, name: str, *args: int) -> None:
        """One op count (an ``OpCounter`` method), to the active collector
        and to :attr:`ops`."""
        getattr(_obs_active(), name)(*args)
        getattr(self.ops, name)(*args)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _score_into(self, u_block: np.ndarray, out: np.ndarray) -> None:
        """``out[...] = u_block @ V.T`` in float32, column-sharded.

        Shards partition the *output columns*; every element is one whole
        ``k``-length dot product either way, so sharding affects wall time
        only.  ``np.matmul`` releases the GIL inside BLAS, which is what
        makes the thread pool effective here.
        """
        u_block = u_block.astype(np.float32, copy=False)
        rows, k = u_block.shape
        m = self.num_items
        n_shards = self.policy.shards_for(rows * k * m, m)
        if n_shards == 1:
            np.matmul(u_block, self._vt, out=out)
            return
        self.threads_used = max(self.threads_used, n_shards)
        run_tasks(
            [
                (
                    lambda lo=lo, hi=hi: np.matmul(
                        u_block, self._vt[:, lo:hi], out=out[:, lo:hi]
                    )
                )
                for lo, hi in column_shards(m, n_shards)
            ],
            self.policy.n_threads,
        )

    def _sweep(self, u_rows: np.ndarray, n: int, excluded) -> Tuple[np.ndarray, ...]:
        """The sweep's candidates of one block: ``(rows, cols, masked)``.

        ``excluded`` holds the block's training edges as ``(row, item)``
        arrays (or ``None``); ``masked`` selects the candidates among them
        that :func:`rerank` must score ``-inf``.
        """
        b, m = u_rows.shape[0], self.num_items
        # inf or nan (a huge u, a column beyond float32) fails the test below.
        with np.errstate(invalid="ignore", over="ignore"):
            bound, reach = (np.abs(u_rows) @ self._margin).T
        self._count("count_topk", b * m)
        if reach.max() >= _SWEEP_LIMIT:
            # A float32 sweep could overflow, and inf or nan approximate
            # scores prove nothing: rerank every item.
            rows, cols = np.divmod(np.arange(b * m), m)
            masked = None if excluded is None else excluded[0] * m + excluded[1]
            return rows, cols, masked
        # No u cast, sweep term or partial sum can leave float32's range.
        scores = self._score_buffer(b)
        self._score_into(u_rows, scores)
        self._count("count_gemm", b, self.dimension, m)
        if excluded is not None:
            scores[excluded] = -np.inf
        # kth: at or below each row's n-th best approximate score — the
        # n-th best maximum of GROUPS_PER_N * n disjoint strided item
        # groups, which n distinct items reach.  |approx - exact| <=
        # half the bound on both sides of every comparison, so an item
        # under kth - bound is beaten by n items exactly.  A -inf kth
        # (fewer than n groups with an unmasked item) keeps all.
        groups = min(m, GROUPS_PER_N * n)
        cut = m - m % groups
        maxima = scores[:, :cut].reshape(b, -1, groups).max(axis=1)
        np.maximum(maxima[:, : m - cut], scores[:, cut:], out=maxima[:, : m - cut])
        maxima.sort(axis=1)
        kth = maxima[:, -n]
        # One float32 step below the nearest float32: at or under the
        # float64 threshold, so the float32 comparison keeps every item
        # the float64 one would.
        floor32 = np.nextafter(
            (kth - (bound + self._margin_floor)).astype(np.float32),
            np.float32(-np.inf),
        )
        # Each row keeps its own candidates, row-major, ids ascending
        # (flat positions: a 2-D nonzero costs several times more).
        rows, cols = np.divmod(np.flatnonzero(scores >= floor32[:, None]), m)
        masked = None
        if excluded is not None and kth.min() == -np.inf:
            # Only a row whose kth is -inf keeps masked items.
            masked = scores[rows, cols] == -np.inf
        return rows, cols, masked

    def top_block(
        self,
        users: np.ndarray,
        n: int,
        *,
        exclude: Optional[BipartiteGraph] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One block of users: candidates, exact rerank; ``(items, scores)``.

        ``users`` are at most ``block_rows`` U-side rows, ``1 <= n <=
        num_items``, and ``exclude``'s edges of those rows are masked.  The
        candidates come from the sweep and its margin, or from the index's
        probe of the block's rows under a partial probe; either way they go
        through the same :func:`rerank`.
        """
        u_rows = _decode(self._u, self._u_scales, users)
        b, (m, k) = u_rows.shape[0], self._v.shape
        excluded = (
            None
            if exclude is None
            else csr_pairs(exclude.w.indptr, exclude.w.indices, users)
        )
        if self._vt is None:
            rows, cols = self.index.probe(u_rows, self.nprobe)
            self._count("count_gemm", b, k, self.index.n_cells)
            proposed = rows.size
            masked = None
            if excluded is not None:
                masked = np.intersect1d(
                    rows * m + cols, excluded[0] * m + excluded[1], return_indices=True
                )[1]
        else:
            rows, cols, masked = self._sweep(u_rows, n, excluded)
            self._count("count_gemm", rows.size, k, 1)
            proposed = b * m  # a full probe proposes every item
        if self.index is not None:
            self._count("count_ann_probe", b * self.nprobe)
            self._count("count_ann_candidates", proposed)
        self.reranked_candidates += rows.size
        _obs_active().note_workspace(self.workspace_bytes())
        return rerank(u_rows, self._v, rows, cols, n, masked, self._v_scales)

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def iter_top_items(
        self,
        n: int,
        *,
        users: Optional[np.ndarray] = None,
        exclude: Optional[BipartiteGraph] = None,
        with_scores: bool = False,
    ) -> Iterator[Union[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """Stream ``(users_block, items_block[, scores_block])`` per block.

        ``items_block`` is ``(B, min(n, num_items))`` int64, best first,
        ordered by ``(score desc, index asc)``.  With ``with_scores`` the
        selected float64 scores come along as a freshly allocated block
        (safe to keep across iterations, unlike the internal score buffer).
        A partial probe that proposes fewer than ``n`` items for a row pads
        it with item ``-1`` and score ``-inf``.
        """
        if users is None:
            users = np.arange(self.num_users, dtype=np.int64)
        else:
            users = np.asarray(users, dtype=np.int64)
            if users.ndim != 1:
                raise ValueError("users must be a 1-D index array")
            if users.size and (
                users.min() < 0 or users.max() >= self.num_users
            ):
                raise ValueError(
                    f"user indices must be in [0, {self.num_users})"
                )
        check_exclude(exclude, users, self.num_items)
        n_keep = max(0, min(int(n), self.num_items))
        if n_keep == 0:
            return
        for lo in range(0, users.size, self.block_rows):
            block_users = users[lo : lo + self.block_rows]
            items, scores = self.top_block(block_users, n_keep, exclude=exclude)
            if with_scores:
                yield block_users, items, scores
            else:
                yield block_users, items

    def top_items(
        self,
        n: int,
        *,
        users: Optional[np.ndarray] = None,
        exclude: Optional[BipartiteGraph] = None,
        with_scores: bool = False,
    ) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """All requested users' top-``n`` lists as one ``(U, n')`` array.

        With ``with_scores``, ``(items, scores)``.  Streams through
        :meth:`iter_top_items`; only the *selected* entries are accumulated,
        never the score blocks.
        """
        items: List[np.ndarray] = []
        scores: List[np.ndarray] = []
        for block in self.iter_top_items(
            n, users=users, exclude=exclude, with_scores=with_scores
        ):
            items.append(block[1])
            if with_scores:
                scores.append(block[2])
        if not items:
            # No block (n = 0, or no users): still one, empty, row per user.
            count = self.num_users if users is None else np.asarray(users).size
            n_keep = max(0, min(int(n), self.num_items))
            items = [np.empty((count, n_keep), dtype=np.int64)]
            scores = [np.empty((count, n_keep))]
        if with_scores:
            return np.concatenate(items), np.concatenate(scores)
        return np.concatenate(items)
