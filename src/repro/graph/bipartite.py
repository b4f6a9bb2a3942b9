"""Core bipartite graph data structure.

The whole GEBE pipeline operates on a weighted bipartite graph
``G = (U, V, E)`` whose edges connect nodes of the two disjoint sides.  The
canonical in-memory representation is the ``|U| x |V|`` edge weight matrix
``W`` from the paper (Section 2.1), stored as a ``scipy.sparse.csr_matrix``
so that every algorithm can work directly with sparse matrix products.

:class:`BipartiteGraph` wraps that matrix together with optional node labels
and exposes the graph-level queries the rest of the library needs (degrees,
neighbor lookups, edge iteration, subgraphs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["BipartiteGraph", "Edge", "DENSE_GUARD_ELEMENTS", "ensure_dense_ok"]

#: An edge as exposed by :meth:`BipartiteGraph.edges`: ``(u_index, v_index, weight)``.
Edge = Tuple[int, int, float]

#: Default dense-materialization guard: refuse to build dense arrays with
#: more elements than this (~256 MB of float64) unless the caller forces
#: it.  Dense conversions exist for small graphs and tests; at graph-store
#: scale an accidental ``to_dense()`` is an OOM, not a slow path.
DENSE_GUARD_ELEMENTS = 32_000_000


def ensure_dense_ok(
    shape: Sequence[int],
    *,
    what: str,
    force: bool = False,
    max_elements: Optional[int] = None,
) -> None:
    """Raise unless a dense array of ``shape`` is under the size guard.

    Parameters
    ----------
    shape:
        The dense array's dimensions.
    what:
        Human-readable description of what would be materialized (goes in
        the error message).
    force:
        ``True`` skips the guard entirely — the caller has decided the
        memory cost is acceptable.
    max_elements:
        Override the :data:`DENSE_GUARD_ELEMENTS` threshold.
    """
    if force:
        return
    limit = DENSE_GUARD_ELEMENTS if max_elements is None else int(max_elements)
    elements = 1
    for dim in shape:
        elements *= int(dim)
    if elements > limit:
        size = " x ".join(str(int(dim)) for dim in shape)
        raise ValueError(
            f"refusing to materialize {what}: {size} is {elements} elements "
            f"(~{elements * 8 / 1e9:.1f} GB of float64), over the dense "
            f"guard of {limit}; pass force=True to override, or keep the "
            "computation sparse/out-of-core"
        )


def _as_csr(matrix: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """Coerce ``matrix`` to canonical CSR form with float64 data."""
    csr = sp.csr_matrix(matrix, dtype=np.float64)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


@dataclass
class BipartiteGraph:
    """A weighted, undirected bipartite graph ``G = (U, V, E)``.

    Parameters
    ----------
    w:
        The ``|U| x |V|`` edge weight matrix.  ``w[i, j] > 0`` iff the edge
        ``(u_i, v_j)`` exists; the value is the edge weight.  Any scipy
        sparse matrix or dense array is accepted and normalized to CSR.
    u_labels, v_labels:
        Optional external identifiers for the nodes on each side (e.g. user
        ids, movie titles).  When omitted the integer indices themselves act
        as labels.

    Notes
    -----
    Edge weights must be non-negative: MHS/MHP (paper Eq. 3-5) are defined
    as weighted path sums and Lemma 2.1 relies on non-negativity.
    """

    w: sp.csr_matrix
    u_labels: Optional[List[Hashable]] = None
    v_labels: Optional[List[Hashable]] = None
    _u_index: Dict[Hashable, int] = field(default_factory=dict, repr=False)
    _v_index: Dict[Hashable, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.w = _as_csr(self.w)
        if self.w.nnz and self.w.data.min() < 0:
            raise ValueError("edge weights must be non-negative")
        if self.u_labels is not None:
            if len(self.u_labels) != self.num_u:
                raise ValueError(
                    f"got {len(self.u_labels)} u_labels for {self.num_u} U-nodes"
                )
            self._u_index = {label: i for i, label in enumerate(self.u_labels)}
            if len(self._u_index) != self.num_u:
                raise ValueError("u_labels contain duplicates")
        if self.v_labels is not None:
            if len(self.v_labels) != self.num_v:
                raise ValueError(
                    f"got {len(self.v_labels)} v_labels for {self.num_v} V-nodes"
                )
            self._v_index = {label: j for j, label in enumerate(self.v_labels)}
            if len(self._v_index) != self.num_v:
                raise ValueError("v_labels contain duplicates")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable] | Tuple[Hashable, Hashable, float]],
        *,
        num_u: Optional[int] = None,
        num_v: Optional[int] = None,
        aggregate: str = "sum",
    ) -> "BipartiteGraph":
        """Build a graph from an iterable of ``(u, v)`` or ``(u, v, weight)`` tuples.

        Node identifiers may be arbitrary hashables; they are assigned dense
        integer indices in first-seen order and kept as labels.  When all
        identifiers are already integers in ``range(num_u)``/``range(num_v)``
        and the counts are given, the identity mapping is used and no labels
        are stored.

        Parameters
        ----------
        edges:
            Edge tuples.  A missing third element means weight ``1.0``.
        num_u, num_v:
            Optional side sizes, allowing isolated trailing nodes.
        aggregate:
            How to combine duplicate edges: ``"sum"`` (default) or ``"max"``.
        """
        if aggregate not in ("sum", "max"):
            raise ValueError(f"unknown aggregate mode: {aggregate!r}")

        explicit_sizes = num_u is not None and num_v is not None
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        u_index: Dict[Hashable, int] = {}
        v_index: Dict[Hashable, int] = {}

        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                weight = 1.0
            else:
                u, v, weight = edge  # type: ignore[misc]
            if explicit_sizes and isinstance(u, (int, np.integer)):
                ui = int(u)
                if not 0 <= ui < num_u:  # type: ignore[operator]
                    raise ValueError(f"u index {ui} out of range [0, {num_u})")
            else:
                ui = u_index.setdefault(u, len(u_index))
            if explicit_sizes and isinstance(v, (int, np.integer)):
                vj = int(v)
                if not 0 <= vj < num_v:  # type: ignore[operator]
                    raise ValueError(f"v index {vj} out of range [0, {num_v})")
            else:
                vj = v_index.setdefault(v, len(v_index))
            rows.append(ui)
            cols.append(vj)
            vals.append(float(weight))

        if explicit_sizes:
            shape = (int(num_u), int(num_v))  # type: ignore[arg-type]
            u_labels = v_labels = None
        else:
            shape = (len(u_index), len(v_index))
            u_labels = list(u_index)
            v_labels = list(v_index)

        coo = sp.coo_matrix((vals, (rows, cols)), shape=shape)
        if aggregate == "max":
            # COO duplicate handling always sums; emulate max via a dict pass.
            best: Dict[Tuple[int, int], float] = {}
            for r, c, x in zip(rows, cols, vals):
                key = (r, c)
                if key not in best or x > best[key]:
                    best[key] = x
            if best:
                r_arr, c_arr = zip(*best)
                coo = sp.coo_matrix(
                    (list(best.values()), (list(r_arr), list(c_arr))), shape=shape
                )
            else:
                coo = sp.coo_matrix(shape)
        return cls(coo.tocsr(), u_labels=u_labels, v_labels=v_labels)

    @classmethod
    def from_dense(cls, dense: np.ndarray | Sequence[Sequence[float]]) -> "BipartiteGraph":
        """Build a graph from a dense ``|U| x |V|`` weight array."""
        return cls(sp.csr_matrix(np.asarray(dense, dtype=np.float64)))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_u(self) -> int:
        """Number of nodes in ``U`` (the row side)."""
        return self.w.shape[0]

    @property
    def num_v(self) -> int:
        """Number of nodes in ``V`` (the column side)."""
        return self.w.shape[1]

    @property
    def num_nodes(self) -> int:
        """Total number of nodes, ``|U| + |V|``."""
        return self.num_u + self.num_v

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|`` (nonzero entries of ``W``)."""
        return self.w.nnz

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(self.w.sum())

    @property
    def density(self) -> float:
        """Fraction of possible inter-set edges present."""
        possible = self.num_u * self.num_v
        return self.num_edges / possible if possible else 0.0

    def is_unweighted(self, tol: float = 0.0) -> bool:
        """Return ``True`` when every present edge has weight 1."""
        if self.num_edges == 0:
            return True
        return bool(np.allclose(self.w.data, 1.0, atol=tol))

    # ------------------------------------------------------------------
    # Degrees and neighborhoods
    # ------------------------------------------------------------------
    def u_degrees(self, weighted: bool = False) -> np.ndarray:
        """Per-``U``-node degree (edge count) or weighted degree (strength)."""
        if weighted:
            return np.asarray(self.w.sum(axis=1)).ravel()
        return np.diff(self.w.indptr).astype(np.int64)

    def v_degrees(self, weighted: bool = False) -> np.ndarray:
        """Per-``V``-node degree (edge count) or weighted degree (strength)."""
        csc = self.w.tocsc()
        if weighted:
            return np.asarray(csc.sum(axis=0)).ravel()
        return np.diff(csc.indptr).astype(np.int64)

    def u_neighbors(self, i: int) -> np.ndarray:
        """Indices of ``V``-nodes adjacent to ``u_i``."""
        start, stop = self.w.indptr[i], self.w.indptr[i + 1]
        return self.w.indices[start:stop]

    def u_neighbor_weights(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbor indices and corresponding edge weights of ``u_i``."""
        start, stop = self.w.indptr[i], self.w.indptr[i + 1]
        return self.w.indices[start:stop], self.w.data[start:stop]

    def v_neighbors(self, j: int) -> np.ndarray:
        """Indices of ``U``-nodes adjacent to ``v_j``."""
        wt = self._w_csc
        start, stop = wt.indptr[j], wt.indptr[j + 1]
        return wt.indices[start:stop]

    def v_neighbor_weights(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbor indices and corresponding edge weights of ``v_j``."""
        wt = self._w_csc
        start, stop = wt.indptr[j], wt.indptr[j + 1]
        return wt.indices[start:stop], wt.data[start:stop]

    @property
    def _w_csc(self) -> sp.csc_matrix:
        """Cached CSC view of ``W`` for fast column (V-side) access."""
        cached = getattr(self, "_csc_cache", None)
        if cached is None:
            cached = self.w.tocsc()
            object.__setattr__(self, "_csc_cache", cached)
        return cached

    def weight(self, i: int, j: int) -> float:
        """Weight of edge ``(u_i, v_j)``; 0 when the edge is absent."""
        return float(self.w[i, j])

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the edge ``(u_i, v_j)`` exists."""
        return self.weight(i, j) > 0.0

    # ------------------------------------------------------------------
    # Label translation
    # ------------------------------------------------------------------
    def u_id(self, label: Hashable) -> int:
        """Translate a ``U``-node label to its integer index."""
        if not self._u_index:
            return int(label)  # type: ignore[arg-type]
        return self._u_index[label]

    def v_id(self, label: Hashable) -> int:
        """Translate a ``V``-node label to its integer index."""
        if not self._v_index:
            return int(label)  # type: ignore[arg-type]
        return self._v_index[label]

    def u_label(self, i: int) -> Hashable:
        """Translate a ``U``-node index to its label."""
        return self.u_labels[i] if self.u_labels is not None else i

    def v_label(self, j: int) -> Hashable:
        """Translate a ``V``-node index to its label."""
        return self.v_labels[j] if self.v_labels is not None else j

    # ------------------------------------------------------------------
    # Iteration / conversion
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[Edge]:
        """Iterate over ``(u_index, v_index, weight)`` triples."""
        coo = self.w.tocoo()
        for i, j, x in zip(coo.row, coo.col, coo.data):
            yield int(i), int(j), float(x)

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return edges as parallel arrays ``(u_indices, v_indices, weights)``."""
        coo = self.w.tocoo()
        return (
            coo.row.astype(np.int64),
            coo.col.astype(np.int64),
            coo.data.astype(np.float64),
        )

    def to_dense(self, *, force: bool = False) -> np.ndarray:
        """Materialize ``W`` as a dense array (small graphs / tests only).

        Guarded by :func:`ensure_dense_ok`: raises on matrices over
        :data:`DENSE_GUARD_ELEMENTS` elements unless ``force=True``.
        """
        ensure_dense_ok(self.w.shape, what="the dense weight matrix W", force=force)
        return self.w.toarray()

    def adjacency(self) -> sp.csr_matrix:
        """The ``(|U|+|V|) x (|U|+|V|)`` symmetric adjacency of the whole graph.

        U-nodes take indices ``0..|U|-1`` and V-nodes take
        ``|U|..|U|+|V|-1``.  Used when treating the bipartite graph as a
        homogeneous graph (the DeepWalk/node2vec/LINE/NRP baselines).
        """
        upper = sp.bmat(
            [[None, self.w], [self.w.T, None]], format="csr", dtype=np.float64
        )
        return upper

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_unit_weights(self) -> "BipartiteGraph":
        """A copy of this graph with every edge weight set to 1."""
        w = self.w.copy()
        w.data = np.ones_like(w.data)
        return BipartiteGraph(w, u_labels=self.u_labels, v_labels=self.v_labels)

    def transpose(self) -> "BipartiteGraph":
        """Swap the two sides: ``U`` becomes the column side and vice versa."""
        return BipartiteGraph(
            self.w.T.tocsr(), u_labels=self.v_labels, v_labels=self.u_labels
        )

    def subgraph(self, u_keep: Sequence[int], v_keep: Sequence[int]) -> "BipartiteGraph":
        """Induced subgraph on the given index sets (indices are re-packed)."""
        u_idx = np.asarray(u_keep, dtype=np.int64)
        v_idx = np.asarray(v_keep, dtype=np.int64)
        w = self.w[u_idx][:, v_idx].tocsr()
        u_labels = (
            [self.u_labels[i] for i in u_idx] if self.u_labels is not None else None
        )
        v_labels = (
            [self.v_labels[j] for j in v_idx] if self.v_labels is not None else None
        )
        return BipartiteGraph(w, u_labels=u_labels, v_labels=v_labels)

    def without_edges(self, u_idx: np.ndarray, v_idx: np.ndarray) -> "BipartiteGraph":
        """A copy with the listed edges removed (used for train/test splits)."""
        w = self.w.tolil(copy=True)
        w[np.asarray(u_idx, dtype=np.int64), np.asarray(v_idx, dtype=np.int64)] = 0.0
        return BipartiteGraph(w.tocsr(), u_labels=self.u_labels, v_labels=self.v_labels)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "unweighted" if self.is_unweighted() else "weighted"
        return (
            f"BipartiteGraph(|U|={self.num_u}, |V|={self.num_v}, "
            f"|E|={self.num_edges}, {kind})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        if self.w.shape != other.w.shape:
            return False
        return (self.w != other.w).nnz == 0
