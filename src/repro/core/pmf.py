"""Probability mass functions over path (half-)lengths.

MHS and MHP (paper Eq. 3-5) weight length-``2l`` paths by a PMF
``omega(l)``.  Section 2.4 instantiates ``omega`` with three distributions:

* **Uniform** (Eq. 6) — ``omega(l) = 1/tau`` for ``0 <= l <= tau``.  Note the
  paper's definition sums to ``(tau + 1) / tau``; we reproduce it verbatim.
* **Geometric** (Eq. 7) — ``omega(l) = alpha (1 - alpha)^l``, the decay used
  by Personalized PageRank.
* **Poisson** (Eq. 8) — ``omega(l) = e^{-lambda} lambda^l / l!``, the decay
  used by heat kernel PageRank.  This instantiation admits the closed-form
  matrix exponential exploited by GEBE^p.

Each PMF knows how to produce the truncated weight vector
``[omega(0), ..., omega(tau)]`` consumed by the matrix-free operators.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = ["PathLengthPMF", "UniformPMF", "GeometricPMF", "PoissonPMF", "make_pmf"]


class PathLengthPMF(ABC):
    """Interface for PMFs assigning importance ``omega(l)`` to half-length ``l``."""

    #: short identifier used in configs and experiment tables
    name: str = "abstract"

    @abstractmethod
    def omega(self, ell: int) -> float:
        """The importance ``omega(ell)`` of paths with half-length ``ell``."""

    def weights(self, tau: int) -> np.ndarray:
        """The truncated weight vector ``[omega(0), ..., omega(tau)]``."""
        if tau < 0:
            raise ValueError("tau must be non-negative")
        return np.array([self.omega(ell) for ell in range(tau + 1)], dtype=np.float64)


@dataclass(frozen=True)
class UniformPMF(PathLengthPMF):
    """Uniform path importance (paper Eq. 6): ``omega(l) = 1/tau``.

    ``tau`` here is the distribution's own horizon parameter.  Following the
    paper verbatim, every half-length from 0 to ``tau`` receives the same
    weight ``1/tau``.
    """

    tau: int

    name = "uniform"

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValueError("UniformPMF requires tau >= 1")

    def omega(self, ell: int) -> float:
        if ell < 0:
            raise ValueError("ell must be non-negative")
        return 1.0 / self.tau if ell <= self.tau else 0.0


@dataclass(frozen=True)
class GeometricPMF(PathLengthPMF):
    """Geometric decay (paper Eq. 7): ``omega(l) = alpha (1 - alpha)^l``.

    ``alpha`` is the PPR-style decay factor in ``(0, 1)``; larger values
    concentrate importance on shorter paths.
    """

    alpha: float = 0.5

    name = "geometric"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("GeometricPMF requires alpha in (0, 1)")

    def omega(self, ell: int) -> float:
        if ell < 0:
            raise ValueError("ell must be non-negative")
        return self.alpha * (1.0 - self.alpha) ** ell


@dataclass(frozen=True)
class PoissonPMF(PathLengthPMF):
    """Poisson decay (paper Eq. 8): ``omega(l) = e^{-lambda} lambda^l / l!``.

    The paper restricts ``lambda`` to positive values (it uses integers 1-5
    in the parameter study).  Small ``lambda`` emphasizes short paths.
    """

    lam: float = 1.0

    name = "poisson"

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError("PoissonPMF requires lambda > 0")

    def omega(self, ell: int) -> float:
        if ell < 0:
            raise ValueError("ell must be non-negative")
        # Work in log space to stay finite for large ell.
        log_omega = -self.lam + ell * math.log(self.lam) - math.lgamma(ell + 1)
        return math.exp(log_omega)


def make_pmf(name: str, **params: float) -> PathLengthPMF:
    """Factory for PMFs by name (``"uniform"``, ``"geometric"``, ``"poisson"``).

    Examples
    --------
    >>> make_pmf("poisson", lam=2).omega(0)
    0.1353352832366127
    """
    key = name.lower()
    if key == "uniform":
        return UniformPMF(tau=int(params.get("tau", 20)))
    if key == "geometric":
        return GeometricPMF(alpha=float(params.get("alpha", 0.5)))
    if key == "poisson":
        return PoissonPMF(lam=float(params.get("lam", 1.0)))
    raise ValueError(f"unknown PMF: {name!r}")
