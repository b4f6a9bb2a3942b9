"""Sweep-level reuse of the randomized SVD of a fixed ``W``.

GEBE^p's factorization step is *lambda-independent*: Algorithm 2 computes the
singular pairs of the normalized weight matrix ``W`` once and only the
spectral map ``sigma -> e^{lambda (sigma^2 - 1)}`` depends on ``lambda``.
The parameter studies and benchmark grids nevertheless construct one solver
per grid cell, so without sharing they recompute the identical randomized
SVD for every ``lambda``.

:class:`SpectrumCache` keys a :class:`~repro.linalg.randomized_svd.SVDResult`
on everything that actually determines it:

* a content **fingerprint** of the (normalized) sparse matrix — shape plus
  the raw bytes of the CSR ``indptr``/``indices``/``data`` arrays,
* the SVD ``strategy`` and ``epsilon`` (which drive the iteration schedule),
* the ``seed`` of the Gaussian start block,
* the policy's compute dtype (float32 results differ from float64).

A request with ``k`` at most the cached rank is served by slicing the cached
factors — the top-``k`` part of a rank-``r`` randomized factorization (the
sweep's usual case is the exact same ``k`` every cell).  Requests with
``seed=None`` bypass the cache entirely: the start block comes from OS
entropy, so no two runs are the same computation.

The cache is deliberately *not* threaded through module globals — callers
that want sharing (``sweep_lambda``, experiment grids, user code)
construct one and hand it to each :class:`~repro.core.gebe_p.GEBEPoisson`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .policy import DtypePolicy
from .randomized_svd import SVDResult, randomized_svd

__all__ = ["SpectrumCache", "matrix_fingerprint"]


def matrix_fingerprint(w) -> str:
    """A content hash of a CSR matrix.

    blake2b over the shape and the raw ``indptr``/``indices``/``data``
    bytes.  Two matrices collide only if they are element-identical in the
    same CSR layout — exactly the condition under which an SVD can be
    reused.  ``w`` is a scipy sparse matrix (hashed in canonical CSR form)
    or a memory-mapped :class:`~repro.graph.store.StoreCSR`, whose triplet
    is hashed as stored.
    """
    csr = sp.csr_matrix(w) if sp.issparse(w) else w
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray(csr.shape, dtype=np.int64).tobytes())
    for array in (csr.indptr, csr.indices, csr.data):
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


class SpectrumCache:
    """LRU cache of randomized SVD results for repeated fits over one ``W``.

    Parameters
    ----------
    capacity:
        Maximum number of distinct (matrix, strategy, epsilon, seed, dtype)
        entries to retain; least-recently-used entries are evicted.

    Attributes
    ----------
    hits / misses / bypasses:
        Event counters: ``hits`` includes sliced ``k <= rank`` reuse;
        ``bypasses`` counts unseeded requests the cache refused to serve.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, SVDResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _key(
        self, w: sp.spmatrix, epsilon: float, strategy: str, seed: int, policy: DtypePolicy
    ) -> Tuple:
        # The compute dtype changes the result bits; workspace/threads never
        # do (bit-identity invariant), so they stay out of the key.
        return (matrix_fingerprint(w), strategy, float(epsilon), int(seed), policy.compute)

    def get_or_compute(
        self,
        w: sp.spmatrix,
        k: int,
        epsilon: float,
        *,
        strategy: str,
        seed: Optional[int],
        policy: Optional[DtypePolicy] = None,
        n_oversamples: int = 8,
    ) -> Tuple[SVDResult, str]:
        """The top-``k`` SVD of ``w``, from cache when the key matches.

        Returns ``(result, event)`` with ``event`` one of ``"hit"``,
        ``"miss"``, ``"bypass"``.  On a miss the freshly computed rank-``k``
        result is stored (replacing any lower-rank entry under the same
        key); a hit with ``k`` below the cached rank returns sliced views.
        """
        policy = policy if policy is not None else DtypePolicy()
        if seed is None:
            self.bypasses += 1
            result = randomized_svd(
                w,
                k,
                epsilon,
                n_oversamples=n_oversamples,
                strategy=strategy,
                rng=np.random.default_rng(),
                policy=policy,
            )
            return result, "bypass"
        key = self._key(w, epsilon, strategy, seed, policy)
        cached = self._entries.get(key)
        if cached is not None and cached.rank >= k:
            self._entries.move_to_end(key)
            self.hits += 1
            if cached.rank == k:
                return cached, "hit"
            return SVDResult(u=cached.u[:, :k], s=cached.s[:k], vt=cached.vt[:k]), "hit"
        self.misses += 1
        result = randomized_svd(
            w,
            k,
            epsilon,
            n_oversamples=n_oversamples,
            strategy=strategy,
            rng=np.random.default_rng(seed),
            policy=policy,
        )
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return result, "miss"

    def clear(self) -> None:
        """Drop all entries (counters are retained)."""
        self._entries.clear()
