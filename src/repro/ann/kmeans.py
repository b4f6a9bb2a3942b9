"""Deterministic Lloyd k-means: the IVF coarse quantizer's trainer.

The IVF index of :mod:`repro.ann.ivf` partitions the item embeddings into
cells and probes only the most promising cells per query.  The partition
comes from plain k-means over the item vectors — the classic coarse
quantizer (Sivic & Zisserman's visual words, FAISS's ``IndexIVFFlat``),
implemented here from scratch on numpy so the repo stays dependency-free.

Everything is deterministic for a fixed ``seed``:

* **Init** — ``n_clusters`` distinct points sampled without replacement
  from a seeded :func:`numpy.random.default_rng`.
* **Assignment** — squared euclidean distance via the expansion
  ``||p||^2 - 2 p.c + ||c||^2``, chunked over points so the distance
  block never exceeds a bounded footprint; ``argmin`` ties resolve to the
  smallest centroid index (numpy's contract), so labels are a pure
  function of the inputs.
* **Empty-cluster repair** — an empty cluster is re-seeded with the point
  farthest from its current centroid (largest assignment distance),
  the standard Lloyd rescue; repeats until no empty cluster remains or
  every point is a singleton.
* **Subsample training** — for large collections the :data:`ITERATIONS`
  Lloyd iterations run on a seeded subsample of :data:`SAMPLE` points and
  only the final assignment sweeps the full collection, so 1M+ item
  quantizers build without quadratic training cost.
* **Threads** — the assignment sweeps' distance GEMMs run on the pool of
  :mod:`repro.linalg.parallel` under a default
  :class:`~repro.linalg.DtypePolicy` (``REPRO_NUM_THREADS``), and are
  bit-identical at every thread count.

The quantizer is a *router*, not a compressor: index quality only affects
recall, never correctness, because the IVF search reranks surviving
candidates exactly (see :mod:`repro.ann.ivf`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..linalg.parallel import run_tasks
from ..linalg.policy import DtypePolicy
from ..obs import active as _obs_active

__all__ = ["kmeans_fit", "assign_clusters", "ITERATIONS", "SAMPLE"]

#: Lloyd iterations; the quantizer only routes, so a handful suffices.
ITERATIONS = 8

#: Training-subsample ceiling (points); the full collection is still swept
#: once for the final assignment.
SAMPLE = 65_536

#: Bound on distance-block entries per assignment chunk (~128 MB float64).
_CHUNK_ENTRIES = 1 << 24


def _assign_span(
    points: np.ndarray,
    centroids: np.ndarray,
    c_norms: np.ndarray,
    labels: np.ndarray,
    distances: np.ndarray,
    lo: int,
    hi: int,
) -> None:
    """Assign one contiguous point span (writes disjoint output slices)."""
    block = points[lo:hi]
    d2 = block @ centroids.T
    d2 *= -2.0
    d2 += c_norms[None, :]
    d2 += np.einsum("ij,ij->i", block, block)[:, None]
    picked = np.argmin(d2, axis=1)
    labels[lo:hi] = picked
    np.maximum(
        np.take_along_axis(d2, picked[:, None], axis=1)[:, 0],
        0.0,
        out=distances[lo:hi],
    )


def assign_clusters(
    points: np.ndarray,
    centroids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels (ties to the smallest index) and distances.

    The sweep is chunked by ``_CHUNK_ENTRIES`` alone — the span partition
    never depends on the thread count — and each span writes disjoint
    output slices with an unchanged operation order, so labels and
    distances are bit-identical at every thread count (pinned in
    ``tests/test_ann.py``).  The spans run on the threads of a default
    :class:`~repro.linalg.DtypePolicy` (``REPRO_NUM_THREADS``), as the
    linalg kernels do.

    Returns
    -------
    (labels, distances):
        ``labels`` is ``(n,)`` int64; ``distances`` is ``(n,)`` float64
        squared euclidean distance to the assigned centroid (clipped at 0,
        the expansion can go slightly negative in floating point).
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    policy = DtypePolicy()
    n = points.shape[0]
    n_centroids = max(1, centroids.shape[0])
    labels = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.float64)
    c_norms = np.einsum("ij,ij->i", centroids, centroids)
    chunk = max(1, _CHUNK_ENTRIES // n_centroids)
    spans = [(lo, min(n, lo + chunk)) for lo in range(0, n, chunk)]
    collector = _obs_active()
    for lo, hi in spans:
        collector.count_gemm(hi - lo, points.shape[1], centroids.shape[0])
    n_workers = policy.shards_for(n * n_centroids, len(spans))
    collector.note_threads(n_workers)
    if n_workers <= 1:
        for lo, hi in spans:
            _assign_span(points, centroids, c_norms, labels, distances, lo, hi)
    else:
        run_tasks(
            [
                (
                    lambda lo=lo, hi=hi: _assign_span(
                        points, centroids, c_norms, labels, distances, lo, hi
                    )
                )
                for lo, hi in spans
            ],
            policy.n_threads,
        )
    return labels, distances


def _repair_empty(
    points: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    distances: np.ndarray,
) -> bool:
    """Re-seed empty clusters from the farthest assigned points.

    Mutates ``centroids``/``labels``/``distances`` in place; returns whether
    anything changed (caller re-runs assignment afterwards).
    """
    n_clusters = centroids.shape[0]
    counts = np.bincount(labels, minlength=n_clusters)
    empty = np.flatnonzero(counts == 0)
    if empty.size == 0:
        return False
    changed = False
    for cluster in empty:
        donor = int(np.argmax(distances))
        if distances[donor] <= 0.0:
            # Every remaining point sits exactly on a centroid (duplicate-
            # heavy data); nothing can be moved.  Reporting "changed" here
            # would send the caller into an unbreakable repair loop.
            break
        centroids[cluster] = points[donor]
        labels[donor] = cluster
        distances[donor] = 0.0
        changed = True
    return changed


def kmeans_fit(
    points: np.ndarray,
    n_clusters: int,
    *,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Train a coarse quantizer; return ``(centroids, labels)``.

    Parameters
    ----------
    points:
        ``(n, k)`` float collection to partition.
    n_clusters:
        Requested cell count; clipped to ``[1, n]`` (one point cannot fill
        two cells).
    seed:
        Controls init and the training subsample; the whole fit is a pure
        function of ``(points, n_clusters, seed)`` at every thread count.

    :data:`ITERATIONS` Lloyd iterations run over at most :data:`SAMPLE`
    training points; the returned ``labels`` always cover the *full*
    collection via one final assignment sweep.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got {points.ndim}-D")
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty collection")
    n_clusters = int(max(1, min(int(n_clusters), n)))
    rng = np.random.default_rng(seed)

    train = points
    if n > SAMPLE:
        train = points[np.sort(rng.choice(n, size=SAMPLE, replace=False))]
    centroids = train[
        np.sort(rng.choice(train.shape[0], size=n_clusters, replace=False))
    ].copy()

    for _ in range(ITERATIONS):
        labels, distances = assign_clusters(train, centroids)
        while _repair_empty(train, centroids, labels, distances):
            labels, distances = assign_clusters(train, centroids)
        # Mean update via bincount — one pass, no per-cluster Python loop.
        # A cell left empty by the repair loop (duplicate-heavy data) keeps
        # its centroid instead of dividing by zero.
        counts = np.bincount(labels, minlength=n_clusters)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, train)
        filled = counts > 0
        centroids = centroids.copy()
        centroids[filled] = sums[filled] / counts[filled, None].astype(np.float64)

    labels, distances = assign_clusters(points, centroids)
    if train is points:
        # Training saw every point, so empty cells are repairable here too.
        while _repair_empty(points, centroids, labels, distances):
            labels, distances = assign_clusters(points, centroids)
    return centroids, labels
