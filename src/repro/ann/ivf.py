"""IVF approximate retrieval: coarse-quantized candidates, exact rerank.

Exact retrieval (:class:`repro.tasks.topk.TopKEngine`) sweeps every
(user, item) pair — ``O(|U| |V| k)`` per sweep, which cannot reach
millions of items at interactive latency.  :class:`IVFIndex` is the
classic inverted-file compromise, built from scratch on numpy, and only a
routing structure: centroids, inverted lists and provenance.  It holds no
reference to the item matrix it routes over and stages no copy of it.

* **Build** — k-means over the item embeddings (:mod:`repro.ann.kmeans`,
  on the threads of a default :class:`~repro.linalg.DtypePolicy`)
  partitions the ``|V|`` items into ``n_cells`` cells; the inverted lists
  are stored as one CSR-style pair (``cell_offsets``/``cell_items``) with
  item ids ascending inside every cell.  Every item lands in exactly one
  cell (``cell_items`` is a permutation of ``arange(|V|)`` — pinned by the
  property suite in ``tests/test_ann.py``).
* **Probe** — a query ranks cells by inner product with the centroids and
  keeps the top ``nprobe`` via :func:`~repro.core.selection.select_topn`
  (the same deterministic total order as everywhere else), so the
  candidate set is monotone non-decreasing in ``nprobe``.
  :meth:`IVFIndex.probe` returns one block's ``(row, item)`` candidate
  pairs.
* **Exact rerank** — the index is a candidate source of the top-k engine
  (``TopKEngine(u, v, index=..., nprobe=...)``): each query row's cell
  candidates go through the engine's :func:`~repro.tasks.topk.rerank`, the
  same fixed-order float64 dot, the same CSR masking and the same
  :func:`select_topn`.  A full probe (every cell) is the engine's own
  sweep, margin and rerank, so its lists and scores are the exact
  engine's.  Approximation lives only in which candidates a partial probe
  proposes: recall@k is a measured knob, not a hope.

Provenance: the index stores a blake2b digest of the item matrix it was
built from (:func:`repro.graph.store.array_checksum` — the same digest
the artifact manifest records for the ``v`` array).  :meth:`IVFIndex.load`
refuses, with a pointed error, to attach an index to embeddings with a
different dimension or digest — the "index built from artifact v3, served
against v4" failure mode.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.selection import select_topn
from ..durable import replace_file
from ..graph.store import array_checksum
from ..tasks.topk import csr_pairs

__all__ = ["IVFIndex", "INDEX_FILE", "DEFAULT_CELLS"]

#: Filename for an index saved next to its artifact version (not part of
#: the artifact manifest — the index is derived data, rebuildable at will).
INDEX_FILE = "index-ivf.npz"


def DEFAULT_CELLS(num_items: int) -> int:
    """The usual ``sqrt(n)`` cell-count heuristic, clipped to ``[1, n]``."""
    return int(max(1, min(num_items, round(float(num_items) ** 0.5))))


def _provenance_error(message: str) -> Exception:
    # Imported lazily: repro.serve imports repro.ann for the --ann serving
    # path, so a module-level import here would be circular.
    from ..serve.artifacts import ArtifactError

    return ArtifactError(message)


class IVFIndex:
    """An inverted-file index over one item-embedding matrix.

    Construct with :meth:`build` (trains the quantizer) or :meth:`load`
    (re-attaches a saved index to its embeddings).  The index holds the
    routing structure — centroids and inverted lists — and provenance; the
    item rows themselves stay with the engine that reranks them.
    """

    def __init__(
        self,
        centroids: np.ndarray,
        cell_offsets: np.ndarray,
        cell_items: np.ndarray,
        *,
        seed: int = 0,
        v_checksum: Optional[str] = None,
        source: Optional[str] = None,
    ):
        self.centroids = np.ascontiguousarray(centroids, dtype=np.float64)
        self.cell_offsets = np.ascontiguousarray(cell_offsets, dtype=np.int64)
        self.cell_items = np.ascontiguousarray(cell_items, dtype=np.int64)
        if self.centroids.ndim != 2:
            raise ValueError("centroids must be 2-D")
        if self.cell_offsets.ndim != 1 or self.cell_items.ndim != 1:
            raise ValueError("inverted lists must be 1-D offset/item arrays")
        if self.cell_offsets.size != self.centroids.shape[0] + 1:
            raise ValueError(
                f"cell_offsets has {self.cell_offsets.size} entries for "
                f"{self.centroids.shape[0]} cells (want n_cells + 1)"
            )
        self.seed = int(seed)
        self.v_checksum = v_checksum
        self.source = source

    # ------------------------------------------------------------------
    # Shapes
    # ------------------------------------------------------------------
    @property
    def num_items(self) -> int:
        """Items covered by the inverted lists."""
        return self.cell_items.size

    @property
    def dimension(self) -> int:
        """Embedding dimensionality ``k``."""
        return self.centroids.shape[1]

    @property
    def n_cells(self) -> int:
        """Coarse-quantizer cell count."""
        return self.centroids.shape[0]

    def cell_sizes(self) -> np.ndarray:
        """``(n_cells,)`` inverted-list lengths (empty cells are legal)."""
        return np.diff(self.cell_offsets)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        v: np.ndarray,
        *,
        n_cells: Optional[int] = None,
        seed: int = 0,
        v_checksum: Optional[str] = None,
        source: Optional[str] = None,
    ) -> "IVFIndex":
        """Train the quantizer and lay out the inverted lists.

        Parameters
        ----------
        v:
            ``(|V|, k)`` item embeddings.
        n_cells:
            Cell count (``None``: the ``sqrt(|V|)`` heuristic).
        seed:
            Forwarded to :func:`repro.ann.kmeans.kmeans_fit` (the fit is
            bit-identical at every thread count).
        v_checksum:
            Digest to record as provenance (``None``: computed from ``v``
            itself — pass the manifest's recorded digest when building from
            a published artifact so the two provably agree).
        source:
            Free-form provenance tag, e.g. an artifact's ``name@vN``.
        """
        from .kmeans import kmeans_fit

        v = np.asarray(v)
        if v.ndim != 2:
            raise ValueError(f"item embeddings must be 2-D, got {v.ndim}-D")
        if n_cells is None:
            n_cells = DEFAULT_CELLS(v.shape[0])
        centroids, labels = kmeans_fit(
            np.asarray(v, dtype=np.float64),
            n_cells,
            seed=seed,
        )
        n_cells = centroids.shape[0]  # kmeans clips to the point count
        counts = np.bincount(labels, minlength=n_cells)
        offsets = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # argsort with a stable kind keeps item ids ascending inside every
        # cell — the rerank depends on it to preserve the global tie order.
        items = np.argsort(labels, kind="stable").astype(np.int64)
        checksum = v_checksum if v_checksum is not None else array_checksum(v)
        return cls(
            centroids,
            offsets,
            items,
            seed=seed,
            v_checksum=checksum,
            source=source,
        )

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------
    def resolve_nprobe(self, nprobe: Optional[int]) -> int:
        """The cells a probe for ``nprobe`` visits (``None``: all)."""
        if nprobe is None:
            return self.n_cells
        nprobe = int(nprobe)
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        return min(nprobe, self.n_cells)

    def probe(self, queries: np.ndarray, nprobe: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(row, item)`` candidate pairs of ``queries``' best cells.

        ``queries`` are ``(B, k)`` float64 rows and ``nprobe`` a resolved
        cell count (:meth:`resolve_nprobe`).  The pairs are row-major with
        item ids ascending inside a row — the order
        :func:`~repro.tasks.topk.rerank` needs for the id tie-break — and
        distinct, since every item sits in one cell.
        """
        cells = select_topn(queries @ self.centroids.T, nprobe)
        slots, items = csr_pairs(self.cell_offsets, self.cell_items, cells.ravel())
        key = np.sort(slots // nprobe * self.num_items + items)
        return np.divmod(key, self.num_items)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def meta(self) -> Dict[str, Any]:
        """JSON-ready provenance (stored verbatim inside the NPZ)."""
        return {
            "schema": "repro.ann.ivf",
            "version": 1,
            "dimension": int(self.dimension),
            "num_items": int(self.num_items),
            "n_cells": int(self.n_cells),
            "seed": int(self.seed),
            "v_checksum": self.v_checksum,
            "source": self.source,
        }

    def save(self, path) -> None:
        """Write the routing structure (not the embeddings) to an NPZ.

        The file is replaced atomically and durably
        (:func:`repro.durable.replace_file`), so a crash mid-write leaves
        the previous index, or none, never a torn one that ``serve --ann``
        refuses.  As with ``np.savez``, ``.npz`` is appended to a path
        without it.
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        with replace_file(path) as tmp:
            np.savez_compressed(
                tmp,
                centroids=self.centroids,
                cell_offsets=self.cell_offsets,
                cell_items=self.cell_items,
                meta=np.array(json.dumps(self.meta(), sort_keys=True)),
            )

    @classmethod
    def load(cls, path, v: np.ndarray) -> "IVFIndex":
        """Re-attach a saved index to the embeddings it must describe.

        Raises
        ------
        repro.serve.artifacts.ArtifactError
            With a pointed message when ``v``'s dimension, item count, or
            content digest disagree with what the index was built from —
            the "index from another artifact version" failure mode.
        """
        import zipfile

        try:
            with np.load(path, allow_pickle=False) as bundle:
                missing = [
                    key
                    for key in ("centroids", "cell_offsets", "cell_items", "meta")
                    if key not in bundle.files
                ]
                if missing:
                    raise _provenance_error(
                        f"{path}: invalid IVF index: missing arrays {missing}"
                    )
                centroids = bundle["centroids"]
                cell_offsets = bundle["cell_offsets"]
                cell_items = bundle["cell_items"]
                meta = json.loads(str(bundle["meta"]))
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            # np.load reports garbage as ValueError ("pickled data") or
            # BadZipFile depending on what the bytes resemble.
            raise _provenance_error(f"{path}: cannot read IVF index: {exc}") from exc
        v = np.asarray(v)
        if v.ndim != 2 or int(meta.get("dimension", -1)) != v.shape[1]:
            raise _provenance_error(
                f"{path}: index was built for dimension "
                f"{meta.get('dimension')} but the artifact's embeddings "
                f"have dimension {v.shape[1] if v.ndim == 2 else '?'} — "
                "rebuild the index against this artifact version "
                "(repro index)"
            )
        if int(meta.get("num_items", -1)) != v.shape[0]:
            raise _provenance_error(
                f"{path}: index covers {meta.get('num_items')} items but "
                f"the artifact's embeddings have {v.shape[0]} — rebuild "
                "the index against this artifact version (repro index)"
            )
        expected = meta.get("v_checksum")
        actual = array_checksum(v)
        if expected is not None and actual != expected:
            raise _provenance_error(
                f"{path}: index checksum {expected} does not match the "
                f"artifact's item embeddings ({actual}) — the index was "
                "built from a different artifact version; rebuild it "
                "(repro index)"
            )
        return cls(
            centroids,
            cell_offsets,
            cell_items,
            seed=int(meta.get("seed", 0)),
            v_checksum=expected if expected is not None else actual,
            source=meta.get("source"),
        )
