"""Common interface for every embedding method in the library.

All methods — GEBE, GEBE^p, the ablations, and the fifteen baselines — are
:class:`BipartiteEmbedder` subclasses producing an :class:`EmbeddingResult`.
The downstream tasks (top-N recommendation, link prediction) and the
benchmark harness only ever talk to this interface, so methods are freely
interchangeable in experiments.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..graph import BipartiteGraph
from ..obs import active as _obs_active
from .selection import select_topn

__all__ = ["EmbeddingResult", "BipartiteEmbedder"]


@dataclass
class EmbeddingResult:
    """Embeddings for both sides of a bipartite graph.

    Attributes
    ----------
    u:
        ``|U| x k`` embedding matrix for the U side.
    v:
        ``|V| x k`` embedding matrix for the V side.
    method:
        Name of the producing method (for experiment tables).
    elapsed_seconds:
        Wall-clock training time as measured by :meth:`BipartiteEmbedder.fit`.
    metadata:
        Free-form method diagnostics (iterations, convergence flags, ...).
    """

    u: np.ndarray
    v: np.ndarray
    method: str = "unknown"
    elapsed_seconds: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.u.ndim != 2 or self.v.ndim != 2:
            raise ValueError("embeddings must be 2-D matrices")
        if self.u.shape[1] != self.v.shape[1]:
            raise ValueError(
                f"dimension mismatch: u is {self.u.shape}, v is {self.v.shape}"
            )

    @property
    def dimension(self) -> int:
        """The embedding dimensionality ``k``."""
        return self.u.shape[1]

    def score(self, u_index: int, v_index: int) -> float:
        """Association strength ``U[u_i] . V[v_j]`` for one cross-side pair.

        This is the quantity downstream recommenders rank by (Section 2.5).
        """
        return float(self.u[u_index] @ self.v[v_index])

    def score_matrix(self) -> np.ndarray:
        """All pairwise scores ``U @ V.T`` (small graphs only)."""
        return self.u @ self.v.T

    def scores_for_u(self, u_index: int) -> np.ndarray:
        """Scores of one U-node against every V-node."""
        return self.v @ self.u[u_index]

    def normalized_u(self) -> np.ndarray:
        """Row-normalized U embeddings (the classification features of §2.5)."""
        return _normalize_rows(self.u)

    def normalized_v(self) -> np.ndarray:
        """Row-normalized V embeddings."""
        return _normalize_rows(self.v)

    def edge_features(self, u_idx: np.ndarray, v_idx: np.ndarray) -> np.ndarray:
        """Length-``2k`` concatenated features for edge candidates (§6.4)."""
        return np.hstack([self.u[np.asarray(u_idx)], self.v[np.asarray(v_idx)]])

    def top_items(self, u_index: int, n: int, exclude: Optional[np.ndarray] = None) -> np.ndarray:
        """Indices of the ``n`` best-scoring V-nodes for one U-node.

        ``exclude`` hides already-known items (e.g. training edges), the
        standard recommendation read-out.  Ties resolve toward the smaller
        index (the :func:`~repro.core.selection.select_topn` contract), so
        the list is a pure function of the scores.  This is the per-user
        reference the tests compare :class:`~repro.tasks.topk.TopKEngine`
        against: the two agree wherever no two scores lie within an ulp of
        each other.
        """
        scores = self.scores_for_u(u_index).copy()
        if exclude is not None and len(exclude):
            scores[np.asarray(exclude)] = -np.inf
        return select_topn(scores, n)

    def most_similar_u(self, u_index: int, n: int = 10) -> np.ndarray:
        """The ``n`` U-nodes most similar to ``u_index`` by normalized cosine.

        Normalized-embedding cosines approximate the MHS ``s(u_i, u_l)``
        (paper Eq. 12), so this answers "which users are like this one".
        """
        return self._most_similar(self.normalized_u(), u_index, n)

    def most_similar_v(self, v_index: int, n: int = 10) -> np.ndarray:
        """The ``n`` V-nodes most similar to ``v_index`` (see Lemma 2.2)."""
        return self._most_similar(self.normalized_v(), v_index, n)

    @staticmethod
    def _most_similar(unit: np.ndarray, index: int, n: int) -> np.ndarray:
        cosines = unit @ unit[index]
        cosines[index] = -np.inf  # the node itself is not a neighbor
        n = min(n, cosines.size - 1)
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        return select_topn(cosines, n)


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return matrix / safe


class BipartiteEmbedder(ABC):
    """Base class for every embedding method.

    Subclasses implement :meth:`_embed`; :meth:`fit` adds uniform timing and
    result packaging so that benchmark tables are consistent across methods.

    Attributes
    ----------
    name:
        Display name used in experiment tables (class attribute).
    """

    name: str = "abstract"

    def __init__(self, dimension: int = 128, seed: Optional[int] = None):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.seed = seed

    def _rng(self) -> np.random.Generator:
        """A fresh generator from the configured seed (None = OS entropy)."""
        return np.random.default_rng(self.seed)

    @abstractmethod
    def _embed(self, graph: BipartiteGraph) -> "tuple[np.ndarray, np.ndarray, Dict[str, Any]]":
        """Compute ``(U, V, metadata)`` for ``graph``."""

    def fit(self, graph: BipartiteGraph) -> EmbeddingResult:
        """Train on ``graph`` and return timed embeddings.

        The reported time covers embedding computation only — dataset
        loading and output serialization are excluded, matching the paper's
        measurement protocol (Section 6.2).
        """
        if graph.num_u == 0 or graph.num_v == 0:
            raise ValueError("cannot embed an empty side")
        collector = _obs_active()
        collector.sample_memory()
        started = time.perf_counter()
        u, v, metadata = self._embed(graph)
        elapsed = time.perf_counter() - started
        collector.sample_memory()
        return EmbeddingResult(
            u=u,
            v=v,
            method=self.name,
            elapsed_seconds=elapsed,
            metadata=metadata,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(dimension={self.dimension}, seed={self.seed})"
