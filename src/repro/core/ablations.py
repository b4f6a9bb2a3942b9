"""Ablation baselines MHP-BNE and MHS-BNE (paper Section 6.1).

The paper isolates the contribution of each measure with two ablations, both
using the Poisson instantiation and — per Section 6.1 — the *truncated*
machinery of the generic framework (``t = 200``, ``tau = 20``), not GEBE^p's
closed form:

* **MHP-BNE** preserves only the heterogeneous proximity: it computes the
  best rank-k factorization ``U V^T ~= P_tau`` of the truncated MHP matrix,
  via randomized SVD over the matrix-free :class:`~repro.linalg.ops.ProximityOperator`.
* **MHS-BNE** preserves only the homogeneous similarities of *both* sides:
  it spectrally factorizes the truncated U-side ``H`` and V-side ``H`` with
  Krylov subspace iteration, then row-normalizes each factor so pairwise dot
  products approximate ``s(.,.)`` (Eq. 12), with a spectral-tail correction
  on the diagonal.

The expected experimental shape (paper Tables 4-5): MHP-BNE beats MHS-BNE on
recommendation, MHS-BNE beats MHP-BNE on link prediction, and full GEBE /
GEBE^p beat both.  Because GEBE^p uses the exact (untruncated) ``H_lambda``
while the ablations truncate at ``tau``, GEBE^p also retains a small edge
over MHP-BNE — the same mechanism as its edge over GEBE (Poisson).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..graph import BipartiteGraph
from ..linalg import DtypePolicy, randomized_svd
from ..linalg.ops import ProximityOperator
from .base import BipartiteEmbedder
from .pmf import PoissonPMF
from .preprocess import normalize_weights

__all__ = ["MHPOnlyBNE", "MHSOnlyBNE"]


class MHPOnlyBNE(BipartiteEmbedder):
    """MHP-BNE: rank-k factorization of the truncated Poisson MHP matrix.

    Parameters
    ----------
    dimension:
        Embedding dimensionality ``k``.
    lam:
        Poisson parameter (paper default 1).
    tau:
        Series truncation (paper default 20).
    epsilon:
        Randomized-SVD error parameter.
    normalization:
        Weight preprocessing mode (see :mod:`repro.core.preprocess`).
    seed:
        RNG seed for the SVD start block.
    """

    name = "MHP-BNE"

    def __init__(
        self,
        dimension: int = 128,
        *,
        lam: float = 1.0,
        tau: int = 20,
        epsilon: float = 0.1,
        normalization: str = "spectral",
        seed: Optional[int] = None,
        dtype_policy: Optional[DtypePolicy] = None,
    ):
        super().__init__(dimension=dimension, seed=seed)
        if lam <= 0:
            raise ValueError("lambda must be positive")
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self.lam = lam
        self.tau = tau
        self.epsilon = epsilon
        self.normalization = normalization
        self.dtype_policy = dtype_policy if dtype_policy is not None else DtypePolicy()

    def _embed(
        self, graph: BipartiteGraph
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        k = min(self.dimension, graph.num_u, graph.num_v)
        w = normalize_weights(
            graph, self.normalization, ooc_budget_mb=self.dtype_policy.ooc_budget_mb
        )
        weights = PoissonPMF(lam=self.lam).weights(self.tau)
        proximity = ProximityOperator(w, weights, policy=self.dtype_policy)
        svd = randomized_svd(proximity, k, self.epsilon, rng=self._rng())
        # Best rank-k of P_tau, split symmetrically across the two sides.
        scale = np.sqrt(np.clip(svd.s, 0.0, None))
        u = svd.u * scale[np.newaxis, :]
        v = svd.vt.T * scale[np.newaxis, :]
        metadata = {
            "lambda": self.lam,
            "tau": self.tau,
            "epsilon": self.epsilon,
            "effective_dimension": k,
        }
        return u, v, metadata


class MHSOnlyBNE(BipartiteEmbedder):
    """MHS-BNE: normalized spectral factors of both sides' truncated ``H``.

    One randomized SVD ``W ~= Phi_k Sigma_k Psi_k^T`` supplies *aligned*
    factors for the two sides: the truncated Poisson filter
    ``g_tau(sigma^2) = sum_{l<=tau} omega(l) sigma^{2l}`` turns the shared
    singular values into eigenvalues of the U-side ``H`` (through ``Phi``)
    and of the V-side ``H`` (through ``Psi``).  Each side's factor
    ``X = basis * sqrt(g_tau)`` satisfies ``X X^T ~= H``, so its
    row-normalized form has pairwise dot products approximating ``s(., .)``
    (Eq. 12) — the MHS-preservation goal, for U *and* V as the paper
    specifies.  Row norms use a tail-corrected diagonal: ``H[i, i]`` is at
    least ``omega(0)`` (the identity term of the series) even for nodes
    invisible to the top-k subspace.

    The normalization destroys the magnitude information that encodes
    proximity, so cross-side dot products are weak — the deficiency this
    ablation is meant to expose on recommendation tasks.

    Parameters match :class:`MHPOnlyBNE`.
    """

    name = "MHS-BNE"

    def __init__(
        self,
        dimension: int = 128,
        *,
        lam: float = 1.0,
        tau: int = 20,
        epsilon: float = 0.1,
        normalization: str = "spectral",
        seed: Optional[int] = None,
        dtype_policy: Optional[DtypePolicy] = None,
    ):
        super().__init__(dimension=dimension, seed=seed)
        if lam <= 0:
            raise ValueError("lambda must be positive")
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self.lam = lam
        self.tau = tau
        self.epsilon = epsilon
        self.normalization = normalization
        self.dtype_policy = dtype_policy if dtype_policy is not None else DtypePolicy()

    def _embed(
        self, graph: BipartiteGraph
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        k = min(self.dimension, graph.num_u, graph.num_v)
        w = normalize_weights(
            graph, self.normalization, ooc_budget_mb=self.dtype_policy.ooc_budget_mb
        )
        weights = PoissonPMF(lam=self.lam).weights(self.tau)
        svd = randomized_svd(
            w, k, self.epsilon, rng=self._rng(), policy=self.dtype_policy
        )
        # Truncated Poisson filter applied to the shared singular values.
        sigma_sq = np.clip(svd.s, 0.0, None) ** 2
        eigenvalues = np.zeros_like(sigma_sq)
        power = np.ones_like(sigma_sq)
        for omega_ell in weights:
            eigenvalues += omega_ell * power
            power = power * sigma_sq
        u = self._normalized_side(svd.u, eigenvalues, weights[0])
        v = self._normalized_side(svd.vt.T, eigenvalues, weights[0])
        metadata = {
            "lambda": self.lam,
            "tau": self.tau,
            "epsilon": self.epsilon,
            "effective_dimension": k,
        }
        return u, v, metadata

    def _normalized_side(
        self, vectors: np.ndarray, eigenvalues: np.ndarray, omega0: float
    ) -> np.ndarray:
        factor = vectors * np.sqrt(eigenvalues)[np.newaxis, :]
        captured = (vectors ** 2).sum(axis=1)
        # H[i, i] ~= ||factor[i]||^2 + tail; the identity term omega(0)
        # guarantees at least omega(0) * leftover spectral mass.
        tail = omega0 * np.clip(1.0 - captured, 0.0, None)
        diag = (factor ** 2).sum(axis=1) + tail
        scale = 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))
        return factor * scale[:, np.newaxis]
