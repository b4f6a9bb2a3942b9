"""Approximate nearest-neighbor retrieval over the item embeddings.

The sublinear serving path: an IVF index (k-means coarse quantizer +
inverted lists) is a candidate source of the top-k engine
(``TopKEngine(u, v, index=..., nprobe=...)``), whose exact float64 rerank
through :func:`repro.core.selection.select_topn` verifies the candidates —
full probe is element-identical to the exact
:class:`repro.tasks.topk.TopKEngine`, and ``nprobe`` is a measured
recall@k knob in between.  See ``docs/SERVING.md``.
"""

from .ivf import DEFAULT_CELLS, INDEX_FILE, IVFIndex
from .kmeans import (
    DEFAULT_ITERATIONS,
    DEFAULT_SAMPLE,
    assign_clusters,
    kmeans_fit,
)

__all__ = [
    "IVFIndex",
    "INDEX_FILE",
    "DEFAULT_CELLS",
    "kmeans_fit",
    "assign_clusters",
    "DEFAULT_ITERATIONS",
    "DEFAULT_SAMPLE",
]
