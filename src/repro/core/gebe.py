"""GEBE — the generic BNE solver (paper Algorithm 1).

GEBE approximates the unified objective (Eq. 9) through the top-k eigenpairs
of ``H`` (Theorem 3.1): with eigenvectors ``Z_k`` and eigenvalues
``Lambda_k``,

    U* = Z_k sqrt(Lambda_k),    V* = W^T U*.           (Eq. 13)

The eigenpairs are found by Krylov subspace iteration where each product
``H @ Z`` is expanded by power iteration over the PMF-truncated series
(Eq. 14), so ``H`` is never materialized.  The solver is generic over the
Uniform / Geometric / Poisson instantiations of Section 2.4.

Complexity (Section 4.2): ``O(k t tau |E| + k^2 t |U|)`` time and
``O((|U| + |V|) k + |E|)`` space.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..graph import BipartiteGraph
from ..linalg import DtypePolicy, MatrixFreeOperator, SparseKernel, subspace_iteration
from ..obs import active as _obs_active
from .base import BipartiteEmbedder
from .pmf import GeometricPMF, PathLengthPMF, PoissonPMF, UniformPMF
from .preprocess import normalize_weights

__all__ = ["GEBE", "gebe_uniform", "gebe_geometric", "gebe_poisson"]


def project(w, u: np.ndarray, policy: DtypePolicy) -> np.ndarray:
    """Eq. (13)'s ``V = W^T U``, counted as ``U.shape[1]`` sparse matvecs.

    One :class:`~repro.linalg.SparseKernel` CSC scatter, bit-identical to
    scipy's ``w.T @ u``, for a resident ``w`` and for a memory-mapped
    :class:`~repro.graph.store.StoreCSR` (staged under
    ``policy.ooc_budget_mb``) alike.  It runs in float64 under every
    compute dtype, as the float64 ``U`` and ``W`` make scipy's product.
    """
    collector = _obs_active()
    collector.count_spmv(w.nnz, u.shape[1])
    collector.note_array(u.nbytes)
    kernel = SparseKernel(w, replace(policy, compute="float64"))
    v = kernel.t_matmul(u)
    collector.count_ooc_copy(kernel.ooc_bytes_copied())
    return v


class GEBE(BipartiteEmbedder):
    """Generic bipartite network embedding via KSI + power iteration.

    Parameters
    ----------
    pmf:
        Path-importance distribution (see :mod:`repro.core.pmf`).  The paper
        evaluates :class:`UniformPMF`, :class:`GeometricPMF` and
        :class:`PoissonPMF`; Poisson wins almost everywhere.
    dimension:
        Embedding dimensionality ``k`` (paper default 128).
    tau:
        Truncation of the path-length series (paper default 20).
    max_iterations:
        KSI iteration budget ``t`` (paper default 200).
    tolerance:
        Subspace-convergence threshold for early stopping.
    normalization:
        Weight preprocessing mode (see :mod:`repro.core.preprocess`);
        ``"sym"`` keeps the PMF series convergent on weighted graphs.
    seed:
        Seed for the random semi-unitary start.
    dtype_policy:
        :class:`~repro.linalg.DtypePolicy` for the hot-path kernels
        (``None`` means the default: float64 workspace kernels,
        bit-identical to the reference arithmetic).

    Examples
    --------
    >>> from repro.graph import BipartiteGraph
    >>> from repro.core import GEBE, PoissonPMF
    >>> graph = BipartiteGraph.from_dense([[1.0, 0.0], [1.0, 1.0]])
    >>> result = GEBE(PoissonPMF(lam=1.0), dimension=2, seed=0).fit(graph)
    >>> result.u.shape, result.v.shape
    ((2, 2), (2, 2))
    """

    name = "GEBE"

    def __init__(
        self,
        pmf: PathLengthPMF,
        dimension: int = 128,
        *,
        tau: int = 20,
        max_iterations: int = 200,
        tolerance: float = 1e-8,
        normalization: str = "sym",
        seed: Optional[int] = None,
        dtype_policy: Optional[DtypePolicy] = None,
    ):
        super().__init__(dimension=dimension, seed=seed)
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self.pmf = pmf
        self.tau = tau
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.normalization = normalization
        self.dtype_policy = dtype_policy if dtype_policy is not None else DtypePolicy()
        self.name = f"GEBE ({pmf.name.capitalize()})"

    def _embed(
        self, graph: BipartiteGraph
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        collector = _obs_active()
        num_u = graph.num_u
        k = min(self.dimension, num_u)
        weights = self.pmf.weights(self.tau)
        with collector.stage("gebe"):
            with collector.stage("normalize"):
                w = normalize_weights(
                    graph,
                    self.normalization,
                    ooc_budget_mb=self.dtype_policy.ooc_budget_mb,
                )
            operator = MatrixFreeOperator(w, weights, policy=self.dtype_policy)
            eigen = subspace_iteration(
                operator,
                num_u,
                k,
                max_iterations=self.max_iterations,
                tolerance=self.tolerance,
                rng=self._rng(),
                policy=self.dtype_policy,
            )
            # Eq. (13): U = Z_k sqrt(Lambda_k), V = W^T U.  H is PSD, so the
            # Ritz values are non-negative up to roundoff; clip defensively.
            with collector.stage("project"):
                values = np.clip(eigen.values, 0.0, None)
                u = eigen.vectors * np.sqrt(values)[np.newaxis, :]
                v = project(w, u, self.dtype_policy)
        if k < self.dimension:
            # Graph smaller than the requested dimension: pad with zero
            # columns so results from different graphs remain stackable.
            pad = self.dimension - k
            u = np.hstack([u, np.zeros((u.shape[0], pad))])
            v = np.hstack([v, np.zeros((v.shape[0], pad))])
        metadata = {
            "pmf": self.pmf.name,
            "tau": self.tau,
            "normalization": self.normalization,
            "dtype_policy": self.dtype_policy.describe(),
            "iterations": eigen.iterations,
            "converged": eigen.converged,
            "effective_dimension": k,
            "eigenvalues": values,
        }
        return u, v, metadata


def gebe_uniform(
    dimension: int = 128, *, tau: int = 20, seed: Optional[int] = None, **kwargs: Any
) -> GEBE:
    """GEBE instantiated with the Uniform PMF (Eq. 6)."""
    return GEBE(UniformPMF(tau=tau), dimension, tau=tau, seed=seed, **kwargs)


def gebe_geometric(
    dimension: int = 128,
    *,
    alpha: float = 0.5,
    tau: int = 20,
    seed: Optional[int] = None,
    **kwargs: Any,
) -> GEBE:
    """GEBE instantiated with the Geometric PMF (Eq. 7, PPR-style decay).

    Defaults to ``"spectral"`` weight normalization: on a [0, 1] spectrum
    the truncated geometric filter is nearly flat; the rescaled spectrum
    restores the decay's selectivity (see :mod:`repro.core.preprocess`).
    """
    kwargs.setdefault("normalization", "spectral")
    return GEBE(GeometricPMF(alpha=alpha), dimension, tau=tau, seed=seed, **kwargs)


def gebe_poisson(
    dimension: int = 128,
    *,
    lam: float = 1.0,
    tau: int = 20,
    seed: Optional[int] = None,
    **kwargs: Any,
) -> GEBE:
    """GEBE instantiated with the Poisson PMF (Eq. 8, heat-kernel decay).

    Defaults to ``"spectral"`` weight normalization, matching GEBE^p's
    calibration of the Poisson ``lambda`` scale (see
    :mod:`repro.core.preprocess`).
    """
    kwargs.setdefault("normalization", "spectral")
    return GEBE(PoissonPMF(lam=lam), dimension, tau=tau, seed=seed, **kwargs)
