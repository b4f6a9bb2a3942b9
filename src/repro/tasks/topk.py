"""Batched top-k retrieval over fitted embeddings (the serving path).

Training reads the graph once; a recommendation service reads the
*embeddings* forever.  The paper's Top-N protocol (Section 6.3) and every
factorization-style baseline share the same read-out shape: score one side's
embedding rows against the whole other side (``U[u] . V[v]``), hide the
training edges, keep the best ``n``.  Done one user at a time that is one
GEMV plus one partial sort per user — the Python and BLAS call overhead
dwarfs the arithmetic at scale.

:class:`TopKEngine` is the batched engine:

* **Blocked GEMM scoring** — users are scored ``block_rows`` at a time with
  one ``U_block @ V.T`` product per block, column-sharded across the thread
  pool of :mod:`repro.linalg.parallel` when the configured
  :class:`~repro.linalg.DtypePolicy`'s executor allows (``--threads`` and
  ``REPRO_NUM_THREADS`` apply exactly as they do to the training kernels).
  Each output element is one whole ``k``-dot regardless of sharding, so the
  thread count never changes which items win.
* **CSR exclusion masking** — training edges are masked per block straight
  from the graph's ``indptr``/``indices`` arrays with one vectorized
  gather, not one ``u_neighbors`` call per user.
* **Deterministic selection** — items are kept with
  :func:`~repro.core.selection.select_topn`, the same primitive the
  per-user :meth:`~repro.core.base.EmbeddingResult.top_items` path uses, so
  batch and per-user lists are element-for-element identical (pinned by the
  differential suite in ``tests/test_topk.py``).
* **Bounded memory** — results stream block by block; the full
  ``num_users x num_items`` score matrix is never materialized.  Peak extra
  memory is one reusable ``block_rows x num_items`` score buffer (reported
  through the obs workspace watermark) plus selection temporaries of the
  same block footprint.

Observability: every block reports one GEMM (``count_gemm``) and its
scored-candidate coverage (``count_topk``) to the active collector; the
score buffer feeds the workspace watermark.  Counting happens once per
logical block in the calling thread — worker threads never touch the
collector.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

import numpy as np

from ..core.quantize import QUANT_DTYPES, dequantize_columns
from ..core.selection import select_topn
from ..graph import BipartiteGraph
from ..linalg.parallel import ParallelExecutor, column_shards
from ..linalg.policy import DtypePolicy
from ..obs import active as _obs_active

__all__ = [
    "TopKEngine",
    "QuantizedTopKEngine",
    "DEFAULT_BLOCK_ROWS",
    "neighbor_items",
]

#: Default users-per-GEMM.  256 rows keep the score buffer in the tens of
#: megabytes even for ~10^4 items while amortizing per-block Python and
#: BLAS dispatch overhead; see docs/SERVING.md for the measured tuning curve.
DEFAULT_BLOCK_ROWS = 256


def neighbor_items(graph: BipartiteGraph, user: int) -> np.ndarray:
    """The item ids adjacent to ``user`` — one CSR ``indptr`` slice.

    The per-user complement of :meth:`TopKEngine._mask_exclusions`: the ANN
    rerank (:mod:`repro.ann.ivf`) and the sharded merge work on candidate
    *subsets*, where a flat neighbor array to ``isin`` against beats a
    dense block mask.  Returned ascending (CSR column order), int64.
    """
    indptr = graph.w.indptr
    return graph.w.indices[indptr[user] : indptr[user + 1]].astype(np.int64)


class TopKEngine:
    """Batched ``U_block @ V.T`` scoring with masking and top-n selection.

    Parameters
    ----------
    u, v:
        The two embedding matrices (``|U| x k`` and ``|V| x k``), typically
        ``result.u`` / ``result.v`` of an
        :class:`~repro.core.base.EmbeddingResult` (see :meth:`from_result`).
        Cast once to the policy's compute dtype at construction.
    policy:
        The :class:`~repro.linalg.DtypePolicy` governing compute dtype,
        workspace reuse, and the executor's thread count (``None``: default
        policy — float64, workspace reuse, ``REPRO_NUM_THREADS`` threads).
    block_rows:
        Users scored per GEMM (``None``: :data:`DEFAULT_BLOCK_ROWS`).

    Notes
    -----
    With workspace reuse on (the policy default) the score buffer is grown
    once and overwritten by every block, so score views yielded by
    :meth:`iter_top_items` are only valid until the next block is produced —
    the standard streaming contract.

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
        policy: Optional[DtypePolicy] = None,
        block_rows: Optional[int] = None,
    ):
        self.policy = policy if policy is not None else DtypePolicy()
        self.dtype = self.policy.compute_dtype
        u = np.asarray(u)
        v = np.asarray(v)
        if u.ndim != 2 or v.ndim != 2:
            raise ValueError("embeddings must be 2-D matrices")
        if u.shape[1] != v.shape[1]:
            raise ValueError(
                f"dimension mismatch: u is {u.shape}, v is {v.shape}"
            )
        if block_rows is None:
            block_rows = DEFAULT_BLOCK_ROWS
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        self.block_rows = int(block_rows)
        self._u = np.ascontiguousarray(u, dtype=self.dtype)
        # V.T staged C-contiguous once so every block GEMM streams it in
        # column-major-free layout; column shards slice it without copying.
        self._vt = np.ascontiguousarray(self._as_dtype(v).T)
        self._exec = ParallelExecutor(self.policy.exec_policy)
        self._scores_flat: Optional[np.ndarray] = None
        self.threads_used = 1

    def _as_dtype(self, block: np.ndarray) -> np.ndarray:
        return np.asarray(block, dtype=self.dtype)

    @classmethod
    def from_result(
        cls,
        result,
        *,
        policy: Optional[DtypePolicy] = None,
        block_rows: Optional[int] = None,
    ) -> "TopKEngine":
        """An engine over ``result.u`` / ``result.v`` (duck-typed)."""
        return cls(result.u, result.v, policy=policy, block_rows=block_rows)

    def clone_for_worker(self) -> "TopKEngine":
        """A worker-private engine sharing this engine's embedding arrays.

        The clone aliases the read-only ``U`` and staged ``V.T`` matrices —
        zero copy, so per-thread clones cost only the (lazily grown) score
        workspace — but owns a fresh workspace and executor handle.  This is
        the supported way to score concurrently: one clone per thread, never
        one shared instance (see the class notes on the workspace race).
        """
        clone = type(self).__new__(type(self))
        clone.policy = self.policy
        clone.dtype = self.dtype
        clone.block_rows = self.block_rows
        clone._u = self._u
        clone._vt = self._vt
        clone._exec = ParallelExecutor(self.policy.exec_policy)
        clone._scores_flat = None
        clone.threads_used = 1
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
        return self._vt.shape[1]

    @property
    def dimension(self) -> int:
        """The embedding dimensionality ``k``."""
        return self._u.shape[1]

    def workspace_bytes(self) -> int:
        """Bytes held in the reusable score buffer (0 before first use)."""
        return 0 if self._scores_flat is None else self._scores_flat.nbytes

    def resident_bytes(self) -> int:
        """Process-resident bytes this engine pins: staged arrays + workspace.

        Memory-mapped inputs are excluded — their pages live in the shared
        OS page cache, which is exactly the point of the quantized
        memory-mapped artifact tier (``/metrics`` reports this number as
        ``bytes_resident``).
        """

        def _nbytes(array: Optional[np.ndarray]) -> int:
            if array is None or isinstance(array, np.memmap):
                return 0
            return array.nbytes

        return _nbytes(self._u) + _nbytes(self._vt) + self.workspace_bytes()

    def _score_buffer(self, rows: int) -> np.ndarray:
        """A C-contiguous ``rows x num_items`` score block."""
        needed = rows * self.num_items
        if self._scores_flat is None or self._scores_flat.size < needed:
            self._scores_flat = np.empty(
                self.block_rows * self.num_items, dtype=self.dtype
            )
            _obs_active().note_array(self._scores_flat.nbytes)
        return self._scores_flat[:needed].reshape(rows, self.num_items)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _score_into(self, u_block: np.ndarray, out: np.ndarray) -> None:
        """``out[...] = u_block @ V.T``, column-sharded across the executor.

        Shards partition the *output columns*; every element is one whole
        ``k``-length dot product either way, so sharding affects wall time
        only.  ``np.matmul`` releases the GIL inside BLAS, which is what
        makes the thread pool effective here.
        """
        rows, k = u_block.shape
        m = self.num_items
        n_shards = self._exec.shards_for(rows * k * m, m)
        if n_shards == 1:
            np.matmul(u_block, self._vt, out=out)
            return
        self.threads_used = max(self.threads_used, n_shards)
        self._exec.run(
            [
                (
                    lambda lo=lo, hi=hi: np.matmul(
                        u_block, self._vt[:, lo:hi], out=out[:, lo:hi]
                    )
                )
                for lo, hi in column_shards(m, n_shards)
            ]
        )

    @staticmethod
    def _mask_exclusions(
        scores: np.ndarray, users: np.ndarray, graph: BipartiteGraph
    ) -> None:
        """Set ``scores[i, j] = -inf`` for every edge ``(users[i], j)``.

        One vectorized gather over the CSR ``indptr``/``indices`` arrays —
        the ragged per-user neighbor lists become flat ``(row, col)`` pairs
        without a Python-level loop.
        """
        indptr = graph.w.indptr
        starts = indptr[users].astype(np.int64)
        counts = indptr[users + 1].astype(np.int64) - starts
        total = int(counts.sum())
        if total == 0:
            return
        # Absolute CSR positions: starts[i] + arange(counts[i]), flattened.
        bases = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        cols = graph.w.indices[np.arange(total, dtype=np.int64) + bases]
        rows = np.repeat(np.arange(users.size, dtype=np.int64), counts)
        scores[rows, cols] = -np.inf

    def _check_exclude(
        self, exclude: Optional[BipartiteGraph], users: np.ndarray
    ) -> None:
        """Every masked ``(user, item)`` index must land inside the block.

        The exclusion graph may be *smaller* than the embeddings (e.g. a
        core-filtered training graph scored with embeddings fit elsewhere) —
        mirroring the per-user path, which only ever asks for the neighbors
        of users it scores — but never larger on the item side, and it must
        cover every requested user row.
        """
        if exclude is None:
            return
        if exclude.num_v > self.num_items:
            raise ValueError(
                f"exclusion graph has {exclude.num_v} items but the "
                f"embeddings score only {self.num_items}"
            )
        if users.size and int(users.max()) >= exclude.num_u:
            raise ValueError(
                f"user {int(users.max())} outside the exclusion graph's "
                f"{exclude.num_u} rows"
            )

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
        selected scores come along as a freshly allocated float block (safe
        to keep across iterations, unlike the internal score buffer).
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
        self._check_exclude(exclude, users)
        n_keep = max(0, min(int(n), self.num_items))
        if n_keep == 0:
            return
        for lo in range(0, users.size, self.block_rows):
            block_users = users[lo : lo + self.block_rows]
            collector = _obs_active()
            scores = self._score_buffer(block_users.size)
            self._score_into(self._u[block_users], scores)
            collector.count_gemm(
                block_users.size, self.dimension, self.num_items
            )
            collector.count_topk(block_users.size * self.num_items)
            if exclude is not None:
                self._mask_exclusions(scores, block_users, exclude)
            items = select_topn(scores, n_keep)
            collector.note_workspace(self.workspace_bytes())
            if with_scores:
                yield block_users, items, np.take_along_axis(
                    scores, items, axis=1
                ).copy()
            else:
                yield block_users, items

    def top_items(
        self,
        n: int,
        *,
        users: Optional[np.ndarray] = None,
        exclude: Optional[BipartiteGraph] = None,
    ) -> np.ndarray:
        """All requested users' top-``n`` lists as one ``(U, n')`` array.

        Streams through :meth:`iter_top_items`; only the *selected* indices
        are accumulated, never the score blocks.
        """
        count = self.num_users if users is None else np.asarray(users).size
        n_keep = max(0, min(int(n), self.num_items))
        blocks = [
            items
            for _, items in self.iter_top_items(n, users=users, exclude=exclude)
        ]
        if not blocks:
            return np.empty((count, n_keep), dtype=np.int64)
        return np.concatenate(blocks, axis=0)


class QuantizedTopKEngine(TopKEngine):
    """Top-``n`` retrieval over per-column-quantized embeddings, still exact.

    The engine of the quantized artifact tier
    (:meth:`repro.serve.artifacts.ArtifactStore.publish` with
    ``quantize="float16"|"int8"``): it never materializes the float64
    embedding matrices.  Instead it scores *approximately* and reranks a
    provably sufficient margin *exactly* — the same candidate-generation /
    verification split as the IVF index of :mod:`repro.ann.ivf`:

    1. **Approximate sweep** — one ``u_block @ V.T`` GEMM per block in
       float32 over a staged float32 ``V.T`` built from the codes and
       per-column scales (half the float64 staging footprint; the codes
       themselves usually stay memory-mapped).
    2. **Margin from the per-column error bound** — the scales bound every
       dequantized value per column (``scale_j`` for float16 codes in
       ``[-1, 1]``, ``127 * scale_j`` for int8), so the gap between the
       float32 approximate score and the exact float64 score of user ``i``
       is at most ``B_i = c * sum_j |u_ij| * colmax_j`` with
       ``c = 8 (k + 8) eps_f32`` (cast + staging + length-``k``
       accumulation error, with headroom).  Every item whose approximate
       score reaches within ``2 B_i`` of the block's ``n``-th best is a
       candidate; anything below is *provably* beaten by ``n`` items in
       exact score and can never appear in the exact list.
    3. **Exact rerank** — candidate rows are dequantized to float64 and
       rescored with a *fixed-order* dot product (``np.einsum``, ascending
       dimension index), then selected with
       :func:`~repro.core.selection.select_topn`; because candidates come
       out ascending by global id, the tie-break coincides with the exact
       engine's.

    The fixed-order rerank is deliberate: BLAS GEMM kernels change their
    per-element summation order with the operand *shape*, so a
    candidate-subset GEMM is not bit-reproducible against a full-width one.
    ``einsum`` accumulates every dot identically regardless of block size,
    candidate count, or thread count — the rerank scores are a pure
    function of the codes and scales.

    The result is **list-identical to a plain :class:`TopKEngine` over the
    dequantized embeddings** at every block size and thread count, for both
    codecs, all-ties included, and the returned scores are the exact
    float64 dot products of those dequantized embeddings (pinned
    bit-for-bit against an independent fixed-order evaluation by
    ``tests/test_quant.py``).  Relative to the exact engine's BLAS-computed
    scores the agreement is exact wherever the dots are exactly
    representable (the all-ties integer fixtures) and within one unit in
    the last place otherwise — summation-order noise far below the
    quantization error, and never enough to reorder a list unless two real
    scores are themselves sub-ulp ties.

    Parameters
    ----------
    u_codes, v_codes:
        Quantized embedding matrices (float16 or int8), typically the
        memory-mapped arrays of a quantized artifact.
    u_scales, v_scales:
        The matching per-column float64 scales.
    quant_dtype:
        ``"float16"`` or ``"int8"`` — must match the codes' dtype.
    policy, block_rows:
        As for :class:`TopKEngine`.  The approximate sweep always runs in
        float32 regardless of the policy's compute dtype; the rerank is
        always float64.
    """

    def __init__(
        self,
        u_codes: np.ndarray,
        u_scales: np.ndarray,
        v_codes: np.ndarray,
        v_scales: np.ndarray,
        *,
        quant_dtype: str,
        policy: Optional[DtypePolicy] = None,
        block_rows: Optional[int] = None,
    ):
        if quant_dtype not in QUANT_DTYPES:
            raise ValueError(
                f"quant_dtype must be one of {QUANT_DTYPES}, got {quant_dtype!r}"
            )
        self.policy = policy if policy is not None else DtypePolicy()
        self.quant_dtype = str(quant_dtype)
        self.dtype = np.dtype(np.float32)  # the approximate-sweep dtype
        u_codes = np.asarray(u_codes)
        v_codes = np.asarray(v_codes)
        if u_codes.ndim != 2 or v_codes.ndim != 2:
            raise ValueError("quantized embeddings must be 2-D matrices")
        if u_codes.shape[1] != v_codes.shape[1]:
            raise ValueError(
                f"dimension mismatch: u is {u_codes.shape}, v is {v_codes.shape}"
            )
        expected = np.dtype(quant_dtype)
        for name, codes in (("u", u_codes), ("v", v_codes)):
            if codes.dtype != expected:
                raise ValueError(
                    f"{name} codes are {codes.dtype}, expected {expected} "
                    f"for quant_dtype={quant_dtype!r}"
                )
        u_scales = np.ascontiguousarray(u_scales, dtype=np.float64)
        v_scales = np.ascontiguousarray(v_scales, dtype=np.float64)
        k = u_codes.shape[1]
        if u_scales.shape != (k,) or v_scales.shape != (k,):
            raise ValueError(
                f"scales must be ({k},), got u {u_scales.shape} / "
                f"v {v_scales.shape}"
            )
        if block_rows is None:
            block_rows = DEFAULT_BLOCK_ROWS
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        self.block_rows = int(block_rows)
        self._u = u_codes  # codes, possibly memory-mapped; dequantized per block
        self._u_scales = u_scales
        self._v_codes = v_codes
        self._v_scales = v_scales
        # The staged approximate V.T: float32 dequantized codes, C-contiguous
        # like the exact engine's staging so the sweep GEMM shards the same.
        self._vt = np.ascontiguousarray(
            (v_codes.astype(np.float32) * v_scales.astype(np.float32)).T
        )
        # Per-column bound on any |dequantized v| — from the scales alone.
        code_max = 1.0 if self.quant_dtype == "float16" else 127.0
        colmax = v_scales * code_max
        # Measured per-column staging error max_i |float32 staged - exact|,
        # computed in one chunked pass.  A column whose values fall outside
        # float32's graceful range inflates its entry (up to inf), which
        # only widens the margin toward a full rerank — never breaks
        # exactness.
        stage_err = np.zeros(k)
        chunk = max(1, (1 << 22) // max(1, k))
        for lo in range(0, v_codes.shape[0], chunk):
            exact_chunk = v_codes[lo : lo + chunk].astype(np.float64) * v_scales
            staged_chunk = self._vt[:, lo : lo + chunk].T.astype(np.float64)
            if exact_chunk.size:
                np.maximum(
                    stage_err,
                    np.abs(staged_chunk - exact_chunk).max(axis=0),
                    out=stage_err,
                )
        # Per-column score-error weights: staging error plus the float32
        # cast of u and the length-k accumulation (~k*eps each, 4x headroom).
        eps32 = float(np.finfo(np.float32).eps)
        self._colerr = stage_err + (4.0 * (k + 8) * eps32) * colmax
        # Absolute floor covering subnormal-u cast error (spacing 2^-149).
        self._abs_bound = (2.0 ** -140) * float(np.sum(colmax))
        self._exec = ParallelExecutor(self.policy.exec_policy)
        self._scores_flat: Optional[np.ndarray] = None
        self.threads_used = 1
        #: Cumulative (user, candidate) pairs reranked in float64 — the
        #: margin cost; the bench's quant axis and /metrics read this.
        self.reranked_candidates = 0

    def clone_for_worker(self) -> "QuantizedTopKEngine":
        """Per-thread clone; same contract as the exact engine's."""
        clone = super().clone_for_worker()
        clone.quant_dtype = self.quant_dtype
        clone._u_scales = self._u_scales
        clone._v_codes = self._v_codes
        clone._v_scales = self._v_scales
        clone._colerr = self._colerr
        clone._abs_bound = self._abs_bound
        clone.reranked_candidates = 0
        return clone

    def resident_bytes(self) -> int:
        base = super().resident_bytes()
        if not isinstance(self._v_codes, np.memmap):
            # _vt is staged from the codes; avoid double counting only the
            # mmap case (the resident copy is the staging, not the codes).
            base += self._v_codes.nbytes
        return base + self._u_scales.nbytes + self._v_scales.nbytes

    # ------------------------------------------------------------------
    # Dequantization (float64, bit-reproducible)
    # ------------------------------------------------------------------
    def _dequant_u(self, rows: np.ndarray) -> np.ndarray:
        """The exact float64 values of the requested user rows."""
        return self._u[rows].astype(np.float64) * self._u_scales

    def _dequant_v(self, rows: np.ndarray) -> np.ndarray:
        """The exact float64 values of the requested item rows, ``(c, k)``."""
        return self._v_codes[rows].astype(np.float64) * self._v_scales

    @staticmethod
    def _exact_dots(u_deq: np.ndarray, v_deq: np.ndarray) -> np.ndarray:
        """Fixed-order float64 dots: ``(b, k) x (c, k) -> (b, c)``.

        ``einsum`` (no ``optimize``) accumulates each dot in ascending
        dimension index whatever the operand shapes, so these scores are a
        pure function of the dequantized values — unlike a BLAS GEMM,
        whose summation order (and hence last bit) shifts with the block
        and candidate widths.  Every exact score the engine emits flows
        through here.
        """
        return np.einsum("bk,ck->bc", u_deq, v_deq)

    def user_scores(self, user: int) -> np.ndarray:
        """Exact float64 scores of one user against every item (chunked).

        Bit-identical to the scores :meth:`iter_top_items` emits for the
        same ``(user, item)`` pairs — both run :meth:`_exact_dots`.
        """
        row = self._dequant_u(np.asarray([int(user)], dtype=np.int64))
        out = np.empty(self.num_items, dtype=np.float64)
        chunk = max(1, (1 << 22) // max(1, self.dimension))
        for lo in range(0, self.num_items, chunk):
            rows = np.arange(lo, min(lo + chunk, self.num_items), dtype=np.int64)
            out[lo : lo + rows.size] = self._exact_dots(
                row, self._dequant_v(rows)
            )[0]
        return out

    # ------------------------------------------------------------------
    # Margin-reranked retrieval
    # ------------------------------------------------------------------
    def _mask_candidate_exclusions(
        self,
        scores: np.ndarray,
        users: np.ndarray,
        cand: np.ndarray,
        graph: BipartiteGraph,
    ) -> None:
        """``-inf`` the excluded ``(user, item)`` pairs *within* ``cand``.

        The candidate-subset complement of :meth:`_mask_exclusions`:
        global CSR columns are located in the ascending candidate array by
        binary search, misses (excluded items that did not make the
        margin) are simply dropped.
        """
        indptr = graph.w.indptr
        starts = indptr[users].astype(np.int64)
        counts = indptr[users + 1].astype(np.int64) - starts
        total = int(counts.sum())
        if total == 0:
            return
        bases = np.repeat(
            starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        cols = graph.w.indices[np.arange(total, dtype=np.int64) + bases]
        rows = np.repeat(np.arange(users.size, dtype=np.int64), counts)
        pos = np.searchsorted(cand, cols)
        pos_clipped = np.minimum(pos, cand.size - 1)
        hit = cand[pos_clipped] == cols
        scores[rows[hit], pos_clipped[hit]] = -np.inf

    def iter_top_items(
        self,
        n: int,
        *,
        users: Optional[np.ndarray] = None,
        exclude: Optional[BipartiteGraph] = None,
        with_scores: bool = False,
    ) -> Iterator[Union[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """Stream exact top-``n`` blocks; see the class notes for the proof.

        Yields exactly what the exact engine yields — int64 item blocks
        ordered by ``(score desc, id asc)`` and, when requested, their
        float64 scores at full precision.
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
        self._check_exclude(exclude, users)
        n_keep = max(0, min(int(n), self.num_items))
        if n_keep == 0:
            return
        for lo in range(0, users.size, self.block_rows):
            block_users = users[lo : lo + self.block_rows]
            collector = _obs_active()
            u_deq = self._dequant_u(block_users)
            scores = self._score_buffer(block_users.size)
            self._score_into(u_deq.astype(np.float32), scores)
            collector.count_gemm(
                block_users.size, self.dimension, self.num_items
            )
            collector.count_topk(block_users.size * self.num_items)
            if exclude is not None:
                self._mask_exclusions(scores, block_users, exclude)
            approx_top = select_topn(scores, n_keep)
            # The selection boundary, widened by twice the per-user score
            # error bound: |exact - approx| <= B on both sides of any
            # comparison.  A -inf boundary (fewer than n unmasked items)
            # widens to everything — still exact, just a full rerank.
            kth = np.take_along_axis(
                scores, approx_top[:, -1:], axis=1
            ).astype(np.float64)
            bound = np.abs(u_deq) @ self._colerr + self._abs_bound
            # A nan bound (0 * inf from an overflowed staging column on a
            # zero coordinate) would silently shrink the candidate set;
            # widen it to inf (full rerank) instead.
            np.copyto(bound, np.inf, where=np.isnan(bound))
            cand_mask = scores >= (kth - 2.0 * bound[:, None])
            cand = np.flatnonzero(cand_mask.any(axis=0)).astype(np.int64)
            exact = self._exact_dots(u_deq, self._dequant_v(cand))
            collector.count_gemm(block_users.size, self.dimension, cand.size)
            self.reranked_candidates += int(block_users.size) * int(cand.size)
            if exclude is not None:
                self._mask_candidate_exclusions(
                    exact, block_users, cand, exclude
                )
            keep = select_topn(exact, n_keep)
            items = cand[keep]
            collector.note_workspace(self.workspace_bytes())
            if with_scores:
                yield block_users, items, np.take_along_axis(
                    exact, keep, axis=1
                ).copy()
            else:
                yield block_users, items

    def dequantized(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialized float64 ``(u, v)`` — the matrices this engine is
        exact against.  Test/tooling helper; serving never calls it."""
        return (
            dequantize_columns(np.asarray(self._u), self._u_scales),
            dequantize_columns(np.asarray(self._v_codes), self._v_scales),
        )
