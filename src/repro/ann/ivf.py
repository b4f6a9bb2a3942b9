"""IVF approximate retrieval: coarse-quantized candidates, exact rerank.

Exact blocked-GEMM retrieval (:class:`repro.tasks.topk.TopKEngine`) scores
every (user, item) pair — ``O(|U| |V| k)`` per sweep, which cannot reach
millions of items at interactive latency.  :class:`IVFIndex` is the
classic inverted-file compromise, built from scratch on numpy:

* **Build** — k-means over the item embeddings (:mod:`repro.ann.kmeans`)
  partitions the ``|V|`` items into ``n_cells`` cells; the inverted lists
  are stored as one CSR-style pair (``cell_offsets``/``cell_items``) with
  item ids ascending inside every cell.  Every item lands in exactly one
  cell (``cell_items`` is a permutation of ``arange(|V|)`` — pinned by the
  property suite in ``tests/test_ann.py``).
* **Probe** — a query ranks cells by inner product with the centroids and
  keeps the top ``nprobe`` via :func:`~repro.core.selection.select_topn`
  (the same deterministic total order as everywhere else), so the
  candidate set is monotone non-decreasing in ``nprobe``.
* **Exact rerank** — surviving candidates are scored with the *same*
  float64 staged-``V.T`` product the exact engine uses and selected with
  the same :func:`select_topn`.  Approximation lives only in which
  candidates survive the probe: at ``nprobe = n_cells`` every item
  survives and the output is element-identical to :class:`TopKEngine`
  (the differential suite's anchor).  Recall@k is therefore a measured
  knob, not a hope.

Provenance: the index stores a blake2b digest of the item matrix it was
built from (:func:`repro.serve.artifacts.array_checksum` — the same digest
the artifact manifest records for the ``v`` array).  :meth:`IVFIndex.load`
refuses, with a pointed error, to attach an index to embeddings with a
different dimension or digest — the "index built from artifact v3, served
against v4" failure mode.

Observability: every search wave reports probed cells
(``count_ann_probe``) and exactly reranked candidates
(``count_ann_candidates``) plus one GEMM for the centroid scoring; the
rerank coverage is deliberately *not* double-counted into
``topk_candidates`` so exact and ANN sweeps stay separable in reports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..core.selection import select_topn
from ..durable import replace_file
from ..graph import BipartiteGraph
from ..obs import active as _obs_active
from ..tasks.topk import neighbor_items

__all__ = ["IVFIndex", "INDEX_FILE", "DEFAULT_CELLS"]

#: Filename for an index saved next to its artifact version (not part of
#: the artifact manifest — the index is derived data, rebuildable at will).
INDEX_FILE = "index-ivf.npz"


def DEFAULT_CELLS(num_items: int) -> int:
    """The usual ``sqrt(n)`` cell-count heuristic, clipped to ``[1, n]``."""
    return int(max(1, min(num_items, round(float(num_items) ** 0.5))))


def _checksum(array: np.ndarray) -> str:
    # Imported lazily: repro.serve imports repro.ann for the --ann serving
    # path, so a module-level import here would be circular.
    from ..serve.artifacts import array_checksum

    return array_checksum(array)


def _provenance_error(message: str) -> Exception:
    from ..serve.artifacts import ArtifactError

    return ArtifactError(message)


class IVFIndex:
    """An inverted-file index over one item-embedding matrix.

    Construct with :meth:`build` (trains the quantizer) or :meth:`load`
    (re-attaches a saved index to its embeddings).  The index itself holds
    only the routing structure — centroids and inverted lists; the item
    matrix is passed in and staged exactly like the exact engine stages it,
    which is what makes full-probe output element-identical.
    """

    def __init__(
        self,
        v: np.ndarray,
        centroids: np.ndarray,
        cell_offsets: np.ndarray,
        cell_items: np.ndarray,
        *,
        seed: int = 0,
        v_checksum: Optional[str] = None,
        source: Optional[str] = None,
    ):
        v = np.asarray(v)
        if v.ndim != 2:
            raise ValueError(f"item embeddings must be 2-D, got {v.ndim}-D")
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
        if self.cell_items.size != v.shape[0]:
            raise ValueError(
                f"inverted lists cover {self.cell_items.size} items, "
                f"embeddings have {v.shape[0]}"
            )
        if self.centroids.shape[1] != v.shape[1]:
            raise ValueError(
                f"centroid dimension {self.centroids.shape[1]} != "
                f"embedding dimension {v.shape[1]}"
            )
        # Stage V.T C-contiguous in float64 — the exact engine's layout, so
        # the rerank GEMM sees bit-identical operands (column gathers of
        # this staging are C-contiguous (k, c) blocks).
        self._vt = np.ascontiguousarray(np.asarray(v, dtype=np.float64).T)
        self.seed = int(seed)
        self.v_checksum = v_checksum
        self.source = source

    # ------------------------------------------------------------------
    # Shapes
    # ------------------------------------------------------------------
    @property
    def num_items(self) -> int:
        """Items covered by the inverted lists."""
        return self._vt.shape[1]

    @property
    def dimension(self) -> int:
        """Embedding dimensionality ``k``."""
        return self._vt.shape[0]

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
        iterations: Optional[int] = None,
        sample: Optional[int] = None,
        exec_policy=None,
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
        seed, iterations, sample, exec_policy:
            Forwarded to :func:`repro.ann.kmeans.kmeans_fit`
            (``exec_policy`` threads the assignment sweeps; the fit is
            bit-identical at every thread count).
        v_checksum:
            Digest to record as provenance (``None``: computed from ``v``
            itself — pass the manifest's recorded digest when building from
            a published artifact so the two provably agree).
        source:
            Free-form provenance tag, e.g. an artifact's ``name@vN``.
        """
        from .kmeans import DEFAULT_ITERATIONS, DEFAULT_SAMPLE, kmeans_fit

        v = np.asarray(v)
        if v.ndim != 2:
            raise ValueError(f"item embeddings must be 2-D, got {v.ndim}-D")
        if n_cells is None:
            n_cells = DEFAULT_CELLS(v.shape[0])
        centroids, labels = kmeans_fit(
            np.asarray(v, dtype=np.float64),
            n_cells,
            seed=seed,
            iterations=DEFAULT_ITERATIONS if iterations is None else iterations,
            sample=DEFAULT_SAMPLE if sample is None else sample,
            exec_policy=exec_policy,
        )
        n_cells = centroids.shape[0]  # kmeans clips to the point count
        counts = np.bincount(labels, minlength=n_cells)
        offsets = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # argsort with a stable kind keeps item ids ascending inside every
        # cell — the rerank depends on it to preserve the global tie order.
        items = np.argsort(labels, kind="stable").astype(np.int64)
        checksum = v_checksum if v_checksum is not None else _checksum(v)
        return cls(
            v,
            centroids,
            offsets,
            items,
            seed=seed,
            v_checksum=checksum,
            source=source,
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _resolve_nprobe(self, nprobe: Optional[int]) -> int:
        if nprobe is None:
            return self.n_cells
        nprobe = int(nprobe)
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        return min(nprobe, self.n_cells)

    def search(
        self,
        queries: np.ndarray,
        n: int,
        *,
        nprobe: Optional[int] = None,
        exclude: Optional[BipartiteGraph] = None,
        users: Optional[np.ndarray] = None,
        with_scores: bool = False,
        return_stats: bool = False,
    ) -> Union[np.ndarray, Tuple[Any, ...]]:
        """Top-``n`` item ids per query row, best first.

        Parameters
        ----------
        queries:
            ``(B, k)`` query embeddings (user rows of ``U``).
        n:
            List length; capped at ``num_items``.
        nprobe:
            Cells probed per query (``None`` or ``>= n_cells``: all cells —
            the exact, full-probe mode).
        exclude:
            Training graph whose edges are masked, exactly as the exact
            engine masks them (scores forced to ``-inf``; excluded items
            surface last, in id order, only when the probed candidate pool
            runs out of better ones).
        users:
            Graph row ids aligned with ``queries`` (required with
            ``exclude``; the index cannot guess which graph rows the query
            embeddings came from).
        with_scores:
            Also return the selected float64 scores.
        return_stats:
            Also return (last) a dict with the effective ``nprobe``, total
            ``probed_cells``, and exactly reranked ``candidates`` — the
            same numbers the obs counters see, for callers (the serving
            metrics) that cannot use the process-global collector.

        Returns
        -------
        ``(B, n')`` int64 item ids (``n' = min(n, num_items)``), plus the
        matching scores when requested, plus the stats dict when
        requested.  When a partial probe surfaces fewer than ``n'``
        candidates the row is right-padded with ``-1`` (score ``-inf``) —
        full probe never pads.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError(f"queries must be 2-D, got {queries.ndim}-D")
        if queries.shape[1] != self.dimension:
            raise ValueError(
                f"query dimension {queries.shape[1]} != index dimension "
                f"{self.dimension}"
            )
        if exclude is not None:
            if users is None:
                raise ValueError("exclude requires users (the aligned user ids)")
            users = np.asarray(users, dtype=np.int64)
            if users.shape != (queries.shape[0],):
                raise ValueError(
                    f"users must align with queries: {users.shape} vs "
                    f"{queries.shape[0]} rows"
                )
            if exclude.num_v > self.num_items:
                raise ValueError(
                    f"exclusion graph has {exclude.num_v} items but the "
                    f"index covers only {self.num_items}"
                )
        n_probe = self._resolve_nprobe(nprobe)
        n_keep = max(0, min(int(n), self.num_items))
        batch = queries.shape[0]
        out_items = np.full((batch, n_keep), -1, dtype=np.int64)
        out_scores = np.full((batch, n_keep), -np.inf, dtype=np.float64)

        def _pack(probed: int, candidates: int):
            parts: Tuple[Any, ...] = (out_items,)
            if with_scores:
                parts += (out_scores,)
            if return_stats:
                parts += (
                    {
                        "nprobe": n_probe,
                        "probed_cells": probed,
                        "candidates": candidates,
                    },
                )
            return parts if len(parts) > 1 else parts[0]

        if n_keep == 0 or batch == 0:
            return _pack(0, 0)

        collector = _obs_active()
        # One GEMM routes the whole wave: (B, k) @ (k, n_cells).
        cell_scores = queries @ self.centroids.T
        collector.count_gemm(batch, self.dimension, self.n_cells)
        probes = select_topn(cell_scores, n_probe)
        collector.count_ann_probe(batch * n_probe)

        total_candidates = 0
        offsets, items = self.cell_offsets, self.cell_items
        for row in range(batch):
            if n_probe == self.n_cells:
                # Full probe: the candidate set is every item, already in
                # ascending id order — skip the gather entirely.
                cand = None
                scores = np.matmul(queries[row : row + 1], self._vt)[0]
                total_candidates += self.num_items
            else:
                cells = probes[row]
                pieces = [items[offsets[c] : offsets[c + 1]] for c in cells]
                cand = np.sort(np.concatenate(pieces))
                total_candidates += cand.size
                if cand.size == 0:
                    continue
                # Column gather of the staged V.T: a C-contiguous (k, c)
                # block, the same operand layout as the exact engine's GEMM.
                scores = np.matmul(queries[row : row + 1], self._vt[:, cand])[0]
            if exclude is not None:
                neighbors = neighbor_items(exclude, int(users[row]))
                if neighbors.size:
                    if cand is None:
                        scores[neighbors] = -np.inf
                    else:
                        scores[np.isin(cand, neighbors)] = -np.inf
            keep = select_topn(scores, n_keep)
            picked = keep if cand is None else cand[keep]
            out_items[row, : picked.size] = picked
            out_scores[row, : keep.size] = scores[keep]
        collector.count_ann_candidates(total_candidates)
        return _pack(batch * n_probe, total_candidates)

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
        actual = _checksum(v)
        if expected is not None and actual != expected:
            raise _provenance_error(
                f"{path}: index checksum {expected} does not match the "
                f"artifact's item embeddings ({actual}) — the index was "
                "built from a different artifact version; rebuild it "
                "(repro index)"
            )
        return cls(
            v,
            centroids,
            cell_offsets,
            cell_items,
            seed=int(meta.get("seed", 0)),
            v_checksum=expected if expected is not None else actual,
            source=meta.get("source"),
        )
