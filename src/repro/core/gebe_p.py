"""GEBE^p — the Poisson-specialized solver (paper Algorithm 2).

For the Poisson instantiation the untruncated series has a closed form
(Eq. 16):

    H_lambda = e^{-lambda} e^{lambda W W^T},

and if ``W = Phi Sigma Psi^T`` is the SVD of the weight matrix, then
(Eq. 17) the i-th eigenpair of ``H_lambda`` is exactly

    value_i  = e^{-lambda} e^{lambda sigma_i^2},
    vector_i = Phi[:, i].

So the top-k eigenpairs of ``H_lambda`` — with **no truncation at tau and no
KSI loop** — drop out of one randomized SVD of the sparse ``W``.  Embeddings
follow Eq. (13) as in GEBE.  Theorem 5.1 bounds the approximation error in
terms of the SVD error parameter ``epsilon``.

Complexity (Section 5.2): ``O((|E| k + |U| k^2) log(|V|) / eps)`` time —
almost linear in the graph size — and ``O((|U| + |V|) k + |E|)`` space.
The power-iteration SVD orthonormalizes only the shorter side per sweep,
which makes the time ``O((|E| k + min(|U|, |V|) k^2) log(|V|) / eps +
max(|U|, |V|) k^2)``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..graph import BipartiteGraph
from ..linalg import DtypePolicy, SpectrumCache, randomized_svd, refresh_svd
from ..obs import active as _obs_active
from .base import BipartiteEmbedder
from .gebe import project
from .preprocess import normalize_weights

__all__ = ["GEBEPoisson", "poisson_eigenvalues"]


def poisson_eigenvalues(singular_values: np.ndarray, lam: float) -> np.ndarray:
    """Map singular values of ``W`` to eigenvalues of ``H_lambda`` (Eq. 17).

    ``sigma -> e^{-lambda} * e^{lambda sigma^2}``, computed as
    ``exp(lambda (sigma^2 - 1))`` for numerical robustness when
    ``lambda sigma^2`` is large.
    """
    sigma = np.asarray(singular_values, dtype=np.float64)
    return np.exp(lam * (sigma ** 2 - 1.0))


class GEBEPoisson(BipartiteEmbedder):
    """GEBE^p: Poisson-instantiated BNE via one randomized SVD of ``W``.

    Parameters
    ----------
    dimension:
        Embedding dimensionality ``k`` (paper default 128).
    lam:
        Poisson parameter ``lambda`` (paper default 1); larger values weight
        longer paths more.
    epsilon:
        SVD error threshold ``eps`` (paper default 0.1); smaller means more
        block-Krylov iterations and a tighter Theorem 5.1 bound.
    svd_strategy:
        ``"power"`` (default; HMT subspace iteration — same guarantee
        class, lower constants) or ``"block_krylov"`` (the Musco-Musco
        method the paper cites).
    normalization:
        Weight preprocessing mode (see :mod:`repro.core.preprocess`);
        ``"sym"`` keeps ``e^{lambda sigma^2}`` in float64 range on weighted
        graphs.
    seed:
        Seed for the Gaussian SVD start block.
    dtype_policy:
        :class:`~repro.linalg.DtypePolicy` for the hot-path kernels
        (``None`` means the default: float64 workspace kernels,
        bit-identical to the reference arithmetic).
    spectrum_cache:
        Optional shared :class:`~repro.linalg.SpectrumCache`.  The SVD of
        ``W`` is lambda-independent, so sweeps over ``lambda`` (or any
        repeated fits of the same graph with the same seed/epsilon/strategy)
        that share one cache perform exactly one randomized SVD.  Unseeded
        solvers bypass the cache.
    warm_start:
        Optional ``|U| x r`` left basis of a *nearby* weight matrix — e.g.
        the column-normalized ``u`` factor of a previous fit before a small
        edge delta.  The SVD is then warm-started through
        :func:`~repro.linalg.refresh_svd`: counter-measurably fewer
        matvecs when the basis is close, a bit-identical cold fit when the
        residual check rejects it (``metadata["refresh"]`` records which).

    Examples
    --------
    >>> from repro.graph import BipartiteGraph
    >>> from repro.core import GEBEPoisson
    >>> graph = BipartiteGraph.from_dense([[1.0, 0.0], [1.0, 1.0]])
    >>> result = GEBEPoisson(dimension=2, seed=0).fit(graph)
    >>> result.method
    'GEBE^p'
    """

    name = "GEBE^p"

    def __init__(
        self,
        dimension: int = 128,
        *,
        lam: float = 1.0,
        epsilon: float = 0.1,
        svd_strategy: str = "power",
        normalization: str = "spectral",
        seed: Optional[int] = None,
        dtype_policy: Optional[DtypePolicy] = None,
        spectrum_cache: Optional[SpectrumCache] = None,
        warm_start: Optional[np.ndarray] = None,
    ):
        super().__init__(dimension=dimension, seed=seed)
        if lam <= 0:
            raise ValueError("lambda must be positive")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.lam = lam
        self.epsilon = epsilon
        self.svd_strategy = svd_strategy
        self.normalization = normalization
        self.dtype_policy = dtype_policy if dtype_policy is not None else DtypePolicy()
        self.spectrum_cache = spectrum_cache
        self.warm_start = warm_start

    def _embed(
        self, graph: BipartiteGraph
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        collector = _obs_active()
        k = min(self.dimension, graph.num_u, graph.num_v)
        with collector.stage("gebe_p"):
            with collector.stage("normalize"):
                w = normalize_weights(
                    graph,
                    self.normalization,
                    ooc_budget_mb=self.dtype_policy.ooc_budget_mb,
                )
            # Line 1: randomized SVD of W -> Phi'_k, Sigma'_k.  The SVD is
            # lambda-independent, so a shared cache serves every grid cell
            # of a lambda sweep from one factorization.
            cache_event = None
            refresh_info = None
            if self.warm_start is not None:
                # Explicit warm basis (e.g. derived from a published
                # artifact): warm-started refresh with verified fallback.
                svd, refresh_info = refresh_svd(
                    w,
                    k,
                    self.epsilon,
                    warm_start=self.warm_start,
                    strategy=self.svd_strategy,
                    seed=self.seed,
                    policy=self.dtype_policy,
                )
            elif self.spectrum_cache is not None:
                svd, cache_event = self.spectrum_cache.get_or_compute(
                    w,
                    k,
                    self.epsilon,
                    strategy=self.svd_strategy,
                    seed=self.seed,
                    policy=self.dtype_policy,
                )
            else:
                svd = randomized_svd(
                    w,
                    k,
                    self.epsilon,
                    strategy=self.svd_strategy,
                    rng=self._rng(),
                    policy=self.dtype_policy,
                )
            # Lines 2-3: Lambda'_k = e^{-lambda} e^{lambda Sigma'^2},
            # Z'_k = Phi'_k.
            with collector.stage("spectral_map"):
                eigenvalues = poisson_eigenvalues(svd.s, self.lam)
            # Line 4 (via Eq. 13): U = Z'_k sqrt(Lambda'_k), V = W^T U.
            with collector.stage("project"):
                u = svd.u * np.sqrt(eigenvalues)[np.newaxis, :]
                v = project(w, u, self.dtype_policy)
        if k < self.dimension:
            pad = self.dimension - k
            u = np.hstack([u, np.zeros((u.shape[0], pad))])
            v = np.hstack([v, np.zeros((v.shape[0], pad))])
        metadata = {
            "lambda": self.lam,
            "epsilon": self.epsilon,
            "svd_strategy": self.svd_strategy,
            "normalization": self.normalization,
            "dtype_policy": self.dtype_policy.describe(),
            "effective_dimension": k,
            "singular_values": svd.s,
            "eigenvalues": eigenvalues,
        }
        if cache_event is not None:
            metadata["spectrum_cache"] = cache_event
        if refresh_info is not None:
            metadata["refresh"] = refresh_info.to_dict()
        return u, v, metadata
