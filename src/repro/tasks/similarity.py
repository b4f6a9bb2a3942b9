"""Blocked multi-source matrix-free MHS/MHP similarity queries.

The dense measures in :mod:`repro.core.measures` materialize ``H`` and
``P`` and stop at test-sized graphs.  This module answers their rows
exactly, matrix-free, and ranks them as a served query class:

* ``H[u, :] = H e_u``            (``H`` is symmetric, Eq. 3),
* ``P[u, :] = (H e_u)^T W``      (Eq. 5),
* ``s(u, :) = H[u, :] * scale[u] * scale``  with ``scale = diag(H)^{-1/2}``
  (Eq. 4; the diagonal is computed exactly once by blocked probing).

A *block* of one-hot sources becomes one PMF-weighted sparse-chain apply
through the workspace-reusing kernels (`GramKernel.pmf_apply` under the
engine's :class:`~repro.linalg.policy.DtypePolicy`), so a batch of ``b``
queries costs one ``O(tau |E| b)`` apply instead of ``b`` separate ones.
Columns evolve independently through the hop recurrence, so every per-source
row is bit-identical at every thread count and block size, and ranking goes
through the shared :func:`~repro.core.selection.select_topn` — lists are
fully lexicographic and element-identical to the dense reference.

Both same-side (MHS, ``mode="mhs"``) and opposite-side (MHP, ``mode="mhp"``)
neighbor rankings are supported; V-side sources run the engine over
:func:`transposed_graph`, which also handles store-backed (mmap) graphs via
the store's ``v2u`` orientation.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..core.pmf import PathLengthPMF
from ..core.preprocess import normalize_weights
from ..core.selection import select_topn
from ..graph import BipartiteGraph, StoreBackedGraph
from ..linalg import DtypePolicy, ProximityOperator
from ..obs import active as _obs_active

__all__ = [
    "DEFAULT_BLOCK_SOURCES",
    "SIMILARITY_MODES",
    "SimilarityEngine",
    "transposed_graph",
]

#: Default width of the one-hot source blocks (matches the top-k engine's
#: sweet spot: wide enough to amortize the sparse-chain setup, small enough
#: to keep the ``|U| x b`` workspace resident).
DEFAULT_BLOCK_SOURCES = 64

#: Supported neighbor rankings: same-side (Eq. 4) and opposite-side (Eq. 5).
SIMILARITY_MODES = ("mhs", "mhp")

GraphLike = Union[BipartiteGraph, StoreBackedGraph]


def transposed_graph(graph: GraphLike) -> GraphLike:
    """The V-side view of ``graph`` (sources become V-nodes).

    Resident graphs transpose in place; store-backed graphs reuse the
    store's ``v2u`` orientation so the flip stays memory-mapped.
    """
    if isinstance(graph, StoreBackedGraph):
        return StoreBackedGraph(graph.store, graph.store.csr("v2u"))
    return graph.transpose()


class _SharedDiagonal:
    """The exact H diagonal one engine and all its clones share, once probed."""

    def __init__(self) -> None:
        self.value: Optional[np.ndarray] = None
        self.lock = threading.Lock()


class SimilarityEngine:
    """Blocked multi-source matrix-free MHS/MHP top-k queries on one graph.

    Parameters
    ----------
    graph:
        The bipartite graph (resident or store-backed).  Sources are always
        U-side indices of *this* graph; pass :func:`transposed_graph` for
        V-side sources.
    pmf, tau:
        Instantiation and truncation of the underlying ``H`` series.
    normalization:
        Weight preprocessing (``"none"`` reproduces the raw Eq. 3-5
        definitions and matches the dense reference measures).
    policy:
        Dtype/kernel/thread policy; ``None`` means the default (float64,
        workspace-reusing kernels, bit-identical to the reference path).
    block_sources:
        Internal width of the one-hot blocks.  Any number of sources is
        accepted; they are chunked to this width.  Per-source results do
        not depend on the chunking.
    """

    def __init__(
        self,
        graph: GraphLike,
        pmf: PathLengthPMF,
        tau: int,
        *,
        normalization: str = "none",
        policy: Optional[DtypePolicy] = None,
        block_sources: int = DEFAULT_BLOCK_SOURCES,
    ):
        if tau < 0:
            raise ValueError("tau must be non-negative")
        if block_sources < 1:
            raise ValueError("block_sources must be >= 1")
        self.graph = graph
        self.pmf = pmf
        self.tau = int(tau)
        self.normalization = normalization
        self.policy = policy if policy is not None else DtypePolicy()
        self.block_sources = int(block_sources)
        self._w = normalize_weights(
            graph, normalization, ooc_budget_mb=self.policy.ooc_budget_mb
        )
        self._weights = np.asarray(pmf.weights(tau), dtype=np.float64)
        # One ProximityOperator supplies both applies, so MHS and MHP share a
        # single GramKernel workspace and every op is counted at the linalg
        # layer: `_h.matmat` is the H-apply (GramKernel.pmf_apply counts its
        # 2*tau matvecs per column), `.T @ block` is W^T (H block) with the
        # extra W^T matvec counted by the operator itself.
        self._proximity = ProximityOperator(self._w, self._weights, policy=self.policy)
        self._operator = self._proximity._h
        self._onehot: Optional[np.ndarray] = None
        self._shared = _SharedDiagonal()

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_u(self) -> int:
        """Number of source-side nodes."""
        return int(self._operator.w.shape[0])

    @property
    def num_v(self) -> int:
        """Number of opposite-side nodes."""
        return int(self._operator.w.shape[1])

    def clone_for_worker(self) -> "SimilarityEngine":
        """A clone for another thread: shared W/weights/diagonal, own buffers.

        The sparse matrix and PMF weights are shared read-only, and so is
        the exact H diagonal — even one not probed yet: whichever of the
        engine and its clones needs it first probes it, once, for all of
        them.  The kernel workspaces and the one-hot block buffer are
        per-clone, so clones never contend.
        """
        clone = SimilarityEngine.__new__(SimilarityEngine)
        clone.graph = self.graph
        clone.pmf = self.pmf
        clone.tau = self.tau
        clone.normalization = self.normalization
        clone.policy = self.policy
        clone.block_sources = self.block_sources
        clone._w = self._w
        clone._weights = self._weights
        clone._proximity = ProximityOperator(
            self._operator.w, self._weights, policy=self.policy
        )
        clone._operator = clone._proximity._h
        clone._onehot = None
        clone._shared = self._shared
        return clone

    # ------------------------------------------------------------------
    # Row queries (blocked)
    # ------------------------------------------------------------------
    def _check_sources(self, sources: Sequence[int]) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(sources, dtype=np.int64)).ravel()
        if arr.size and (arr.min() < 0 or arr.max() >= self.num_u):
            bad = arr[(arr < 0) | (arr >= self.num_u)][0]
            raise IndexError(f"source index {bad} out of range [0, {self.num_u})")
        return arr

    def _one_hot_block(self, sources: np.ndarray) -> np.ndarray:
        """A reused ``|U| x b`` one-hot block for ``sources`` (grow-once)."""
        b = sources.size
        width = max(b, self.block_sources)
        if self._onehot is None or self._onehot.shape[1] < b:
            self._onehot = np.zeros((self.num_u, width), dtype=np.float64)
            _obs_active().note_array(self._onehot.nbytes)
        block = self._onehot[:, :b]
        block.fill(0.0)
        block[sources, np.arange(b)] = 1.0
        return block

    def _blocks(self, sources: np.ndarray):
        for lo in range(0, sources.size, self.block_sources):
            yield lo, sources[lo : lo + self.block_sources]

    def h_rows(self, sources: Sequence[int]) -> np.ndarray:
        """Exact rows ``H[sources, :]``, shape ``(len(sources), |U|)``.

        One blocked PMF-weighted apply per ``block_sources`` chunk; ``H`` is
        symmetric, so the apply's columns *are* the requested rows.
        """
        sources = self._check_sources(sources)
        out = np.empty((sources.size, self.num_u), dtype=np.float64)
        for lo, chunk in self._blocks(sources):
            h = self._operator.matmat(self._one_hot_block(chunk))
            out[lo : lo + chunk.size] = h.T
        return out

    def mhp_rows(self, sources: Sequence[int]) -> np.ndarray:
        """Exact MHP rows ``P[sources, :]``, shape ``(len(sources), |V|)``.

        Evaluated as ``(P^T E)^T = (W^T (H E))^T`` against the one-hot block
        ``E`` — the transposed proximity operator's apply, which reuses the
        same workspace as :meth:`h_rows` and counts its ops identically.
        """
        sources = self._check_sources(sources)
        out = np.empty((sources.size, self.num_v), dtype=np.float64)
        for lo, chunk in self._blocks(sources):
            p = self._proximity.T @ self._one_hot_block(chunk)
            out[lo : lo + chunk.size] = p.T
        return out

    def mhs_rows(
        self, sources: Sequence[int], *, exclude_self: bool = False
    ) -> np.ndarray:
        """Exact MHS rows ``s(sources, :)`` via Eq. (4)'s diagonal scaling.

        Scaling replicates the dense reference's elementwise order
        (``(h * scale[u]) * scale``), and the self-similarity is pinned to
        1.0 per Lemma 2.1(ii) — or masked to ``-inf`` when ``exclude_self``
        so rankings skip the trivial self match.
        """
        sources = self._check_sources(sources)
        h = self.h_rows(sources)
        diag = self.h_diagonal()
        scale = np.zeros_like(diag)
        positive = diag > 0
        scale[positive] = 1.0 / np.sqrt(diag[positive])
        rows = (h * scale[sources][:, None]) * scale[None, :]
        own = 1.0 if not exclude_self else -np.inf
        rows[np.arange(sources.size), sources] = own
        return rows

    # ------------------------------------------------------------------
    # Diagonal
    # ------------------------------------------------------------------
    def h_diagonal(self, block_size: int = 64, *, seed: Optional[int] = None) -> np.ndarray:
        """Exact diagonal of ``H``, computed by blocked probing and cached.

        ``ceil(|U| / block_size)`` one-hot applies of width ``block_size``.
        Every diagonal entry comes from its own one-hot column, and columns
        evolve independently through the hop recurrence — the result is
        bit-identical for every ``block_size``, probe order, and thread
        count.  ``seed`` fixes the probe-block *schedule* (a seeded
        permutation of the blocks); it exists so the schedule is
        reproducible under randomized probing policies, not because the
        values depend on it.  The cache is shared with every
        :meth:`clone_for_worker` clone; concurrent first calls probe once.
        """
        shared = self._shared
        if shared.value is None:
            if block_size < 1:
                raise ValueError("block_size must be >= 1")
            with shared.lock:
                if shared.value is None:
                    shared.value = self._probe_diagonal(block_size, seed)
        return shared.value

    @property
    def diagonal_probed(self) -> bool:
        """Whether the H diagonal this engine shares has been probed."""
        return self._shared.value is not None

    def _probe_diagonal(self, block_size: int, seed: Optional[int]) -> np.ndarray:
        n = self.num_u
        diagonal = np.empty(n, dtype=np.float64)
        starts = np.arange(0, n, block_size)
        if seed is not None:
            starts = np.random.default_rng(seed).permutation(starts)
        for start in starts:
            stop = min(int(start) + block_size, n)
            chunk = np.arange(start, stop, dtype=np.int64)
            result = self._operator.matmat(self._one_hot_block(chunk))
            diagonal[chunk] = result[chunk, np.arange(chunk.size)]
        return diagonal

    # ------------------------------------------------------------------
    # Top-k queries
    # ------------------------------------------------------------------
    def top_same(
        self,
        sources: Sequence[int],
        n: int,
        *,
        exclude_self: bool = True,
        with_scores: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Top-``n`` same-side neighbors per source, ranked by MHS.

        Returns ``(indices, scores)`` with shape ``(len(sources), n)``;
        ``scores`` is ``None`` unless ``with_scores``.  Lists are fully
        lexicographic (score descending, index ascending) via
        :func:`select_topn` and element-identical to ranking the dense
        ``mhs_matrix`` rows.
        """
        scores = self.mhs_rows(sources, exclude_self=exclude_self)
        items = select_topn(scores, n)
        if not with_scores:
            return items, None
        return items, np.take_along_axis(scores, items, axis=1)

    def top_opposite(
        self,
        sources: Sequence[int],
        n: int,
        *,
        with_scores: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Top-``n`` opposite-side neighbors per source, ranked by MHP."""
        scores = self.mhp_rows(sources)
        items = select_topn(scores, n)
        if not with_scores:
            return items, None
        return items, np.take_along_axis(scores, items, axis=1)

    def query(
        self,
        sources: Sequence[int],
        n: int,
        *,
        mode: str = "mhs",
        exclude_self: bool = True,
        with_scores: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Mode-dispatching top-``n`` query (``"mhs"`` or ``"mhp"``)."""
        if mode == "mhs":
            return self.top_same(
                sources, n, exclude_self=exclude_self, with_scores=with_scores
            )
        if mode == "mhp":
            return self.top_opposite(sources, n, with_scores=with_scores)
        raise ValueError(f"unknown similarity mode {mode!r}; expected one of "
                         f"{SIMILARITY_MODES}")

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def matvecs_per_source(self, mode: str = "mhs") -> int:
        """Sparse matvecs one source costs: ``2*tau`` hops (+1 for MHP)."""
        if mode not in SIMILARITY_MODES:
            raise ValueError(f"unknown similarity mode {mode!r}; expected one of "
                             f"{SIMILARITY_MODES}")
        hops = 2 * (self._weights.size - 1)
        return hops + 1 if mode == "mhp" else hops
