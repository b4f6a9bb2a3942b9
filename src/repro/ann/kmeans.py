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
* **Subsample training** — for large collections the Lloyd iterations run
  on a seeded subsample (``sample`` points) and only the final assignment
  sweeps the full collection, so 1M+ item quantizers build without
  quadratic training cost.

The quantizer is a *router*, not a compressor: index quality only affects
recall, never correctness, because the IVF search reranks surviving
candidates exactly (see :mod:`repro.ann.ivf`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..linalg.parallel import ExecPolicy, ParallelExecutor
from ..obs import active as _obs_active

__all__ = ["kmeans_fit", "assign_clusters", "DEFAULT_ITERATIONS", "DEFAULT_SAMPLE"]

#: Lloyd iterations; the quantizer only routes, so a handful suffices.
DEFAULT_ITERATIONS = 8

#: Training-subsample ceiling (points); the full collection is still swept
#: once for the final assignment.
DEFAULT_SAMPLE = 65_536

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
    *,
    exec_policy: Optional[ExecPolicy] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels (ties to the smallest index) and distances.

    The sweep is chunked by ``_CHUNK_ENTRIES`` alone — the span partition
    never depends on the thread count — and each span writes disjoint
    output slices with an unchanged operation order, so labels and
    distances are bit-identical at every ``exec_policy.n_threads``
    (pinned in ``tests/test_ann.py``).  ``exec_policy=None`` resolves from
    the environment (``REPRO_NUM_THREADS``), the same default the linalg
    kernels use.

    Returns
    -------
    (labels, distances):
        ``labels`` is ``(n,)`` int64; ``distances`` is ``(n,)`` float64
        squared euclidean distance to the assigned centroid (clipped at 0,
        the expansion can go slightly negative in floating point).
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    policy = exec_policy if exec_policy is not None else ExecPolicy.from_env()
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
        executor = ParallelExecutor(policy)
        executor.run(
            [
                (
                    lambda lo=lo, hi=hi: _assign_span(
                        points, centroids, c_norms, labels, distances, lo, hi
                    )
                )
                for lo, hi in spans
            ]
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
    iterations: int = DEFAULT_ITERATIONS,
    sample: Optional[int] = DEFAULT_SAMPLE,
    exec_policy: Optional[ExecPolicy] = None,
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
        function of ``(points, n_clusters, seed, iterations, sample)``.
    iterations:
        Lloyd iterations over the training set.
    sample:
        Train on at most this many points (``None``: all).  The returned
        ``labels`` always cover the *full* collection via one final
        assignment sweep.
    exec_policy:
        Thread policy for the assignment sweeps' distance GEMMs
        (``None``: resolve from ``REPRO_NUM_THREADS``).  Parallelism never
        changes the fit — assignments are bit-identical at every thread
        count, so the whole fit stays a pure function of
        ``(points, n_clusters, seed, iterations, sample)``.
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
    if sample is not None and n > int(sample):
        train = points[np.sort(rng.choice(n, size=int(sample), replace=False))]
    centroids = train[
        np.sort(rng.choice(train.shape[0], size=n_clusters, replace=False))
    ].copy()

    for _ in range(max(0, int(iterations))):
        labels, distances = assign_clusters(
            train, centroids, exec_policy=exec_policy
        )
        while _repair_empty(train, centroids, labels, distances):
            labels, distances = assign_clusters(
                train, centroids, exec_policy=exec_policy
            )
        # Mean update via bincount — one pass, no per-cluster Python loop.
        # A cell left empty by the repair loop (duplicate-heavy data) keeps
        # its centroid instead of dividing by zero.
        counts = np.bincount(labels, minlength=n_clusters)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, train)
        filled = counts > 0
        centroids = centroids.copy()
        centroids[filled] = sums[filled] / counts[filled, None].astype(np.float64)

    labels, distances = assign_clusters(
        points, centroids, exec_policy=exec_policy
    )
    if train is points:
        # Training saw every point, so empty cells are repairable here too.
        while _repair_empty(points, centroids, labels, distances):
            labels, distances = assign_clusters(
                points, centroids, exec_policy=exec_policy
            )
    return centroids, labels
