"""Linear algebra substrate: matrix-free operators, KSI, randomized SVD.

The hot-path kernels live in :mod:`repro.linalg.kernels`; how they run
(dtype, threads, out-of-core staging budget) is configured by
:class:`~repro.linalg.policy.DtypePolicy` alone and threaded through
operators and solvers via configuration.
"""

from .kernels import GramKernel, SparseKernel
from .krylov import EigenResult, subspace_distance, subspace_iteration
from .ops import MatrixFreeOperator, ProximityOperator, gram_apply, pmf_weighted_apply
from .policy import DtypePolicy
from .qr import is_semi_unitary, random_semi_unitary, thin_qr
from .randomized_svd import (
    SVDResult,
    exact_svd,
    krylov_iteration_count,
    randomized_svd,
    warm_iteration_count,
)
from .refresh import (
    RefreshInfo,
    default_residual_tolerance,
    refresh_svd,
    svd_residual,
    warm_basis_from_embedding,
)
from .spectrum_cache import SpectrumCache, matrix_fingerprint

__all__ = [
    "DtypePolicy",
    "SpectrumCache",
    "matrix_fingerprint",
    "SparseKernel",
    "GramKernel",
    "MatrixFreeOperator",
    "ProximityOperator",
    "gram_apply",
    "pmf_weighted_apply",
    "thin_qr",
    "random_semi_unitary",
    "is_semi_unitary",
    "EigenResult",
    "subspace_iteration",
    "subspace_distance",
    "SVDResult",
    "randomized_svd",
    "exact_svd",
    "krylov_iteration_count",
    "warm_iteration_count",
    "RefreshInfo",
    "refresh_svd",
    "svd_residual",
    "default_residual_tolerance",
    "warm_basis_from_embedding",
]
