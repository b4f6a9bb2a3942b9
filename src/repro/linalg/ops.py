"""Matrix-free linear operators used throughout GEBE.

GEBE never materializes the ``|U| x |U|`` matrix ``H``; every algorithm only
needs products ``H @ Z`` against tall-skinny blocks.  The operators here
implement those products with the re-association trick from Algorithm 1:
``(W W^T) Q`` is evaluated as ``W @ (W.T @ Q)`` which costs ``O(|E| k)``
instead of ``O(|U|^2 k)``.

The operators run on the workspace-reusing blocked kernels of
:mod:`repro.linalg.kernels`, configured by the operator's
:class:`~repro.linalg.policy.DtypePolicy`.  The module-level
:func:`gram_apply` / :func:`pmf_weighted_apply` are the allocation-per-call
*reference* products the kernels are pinned bit-identical to in float64.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..obs import active as _obs_active
from .kernels import GramKernel, SparseKernel
from .policy import DtypePolicy

__all__ = [
    "gram_apply",
    "pmf_weighted_apply",
    "MatrixFreeOperator",
    "ProximityOperator",
]


def gram_apply(
    w: sp.spmatrix, block: np.ndarray, dtype: np.dtype = np.float64
) -> np.ndarray:
    """Compute ``(W @ W.T) @ block`` without forming ``W @ W.T``.

    This is the reference (allocation-per-call) implementation; solvers go
    through :class:`MatrixFreeOperator`, which runs on the
    workspace-reusing kernels of :mod:`repro.linalg.kernels`.

    Parameters
    ----------
    w:
        Sparse ``|U| x |V|`` weight matrix.
    block:
        Dense ``|U| x k`` block.
    dtype:
        Compute dtype (float64 default; float32 for the fast policy).
    """
    cols = block.shape[1] if block.ndim == 2 else 1
    _obs_active().count_spmv(w.nnz, 2 * cols)  # W.T @ block, then W @ (...)
    return w @ (w.T @ block)


def pmf_weighted_apply(
    w: sp.spmatrix,
    block: np.ndarray,
    weights: Sequence[float],
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Compute ``H @ block`` where ``H = sum_l weights[l] * (W W^T)^l``.

    This is the power-iteration inner loop of Algorithm 1 (Lines 3-6): it
    maintains ``Q_l = (W W^T)^l @ block`` and accumulates
    ``Q = sum_l weights[l] * Q_l``.  ``weights[l]`` is ``omega(l)`` for the
    chosen PMF truncated at ``tau = len(weights) - 1``.

    Reference implementation — allocates two fresh ``|U| x k`` blocks per
    hop.  Time: ``O(tau * |E| * k)``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    q_ell = np.array(block, dtype=dtype, copy=True)
    _obs_active().note_array(q_ell.nbytes)
    acc = weights[0] * q_ell
    for omega_ell in weights[1:]:
        q_ell = gram_apply(w, q_ell)
        acc += omega_ell * q_ell
    return acc


class MatrixFreeOperator:
    """A symmetric PSD operator ``x -> H x`` defined by ``W`` and PMF weights.

    Wraps the PMF-weighted Gram series with a fixed ``W`` and weight vector
    so it can be handed to the Krylov eigensolver.  The operator represents
    ``H = sum_{l=0}^{tau} omega(l) (W W^T)^l`` (paper Eq. 3) restricted to the
    first ``tau + 1`` terms.

    Parameters
    ----------
    w:
        Sparse ``|U| x |V|`` weight matrix.
    weights:
        PMF weights ``omega(0..tau)``.
    policy:
        The :class:`~repro.linalg.policy.DtypePolicy` governing dtype and
        kernel selection; ``None`` means the default policy (float64,
        workspace-reusing kernels, bit-identical to the reference path).
    """

    def __init__(
        self,
        w: sp.spmatrix,
        weights: Sequence[float],
        *,
        policy: Optional[DtypePolicy] = None,
    ):
        self.policy = policy if policy is not None else DtypePolicy()
        if sp.issparse(w):
            self.w = sp.csr_matrix(w, dtype=np.float64)
        else:
            # A memory-mapped StoreCSR: keep the mapping (a converting copy
            # would materialize the whole matrix).  Stores hold float64, so
            # only the exact policy can run them.
            if not self.policy.is_exact:
                raise ValueError(
                    "out-of-core operators require the float64 compute policy"
                )
            self.w = w
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        self._kernel: Optional[GramKernel] = None
        # The compute-dtype view of W used by the reference path; shares
        # storage with self.w for the default float64 policy.
        if self.policy.is_exact:
            self._w_compute = self.w
        else:
            self._w_compute = self.w.astype(self.policy.compute_dtype)

    @property
    def shape(self) -> tuple:
        n = self.w.shape[0]
        return (n, n)

    def _gram_kernel(self) -> GramKernel:
        if self._kernel is None:
            # Share the compute-dtype CSR storage with the reference path.
            self._kernel = GramKernel(self._w_compute, self.policy)
        return self._kernel

    def matmat(self, block: np.ndarray) -> np.ndarray:
        """Apply the operator to a dense ``|U| x k`` block."""
        block = np.atleast_2d(np.asarray(block, dtype=self.policy.compute_dtype))
        if block.shape[0] != self.w.shape[0]:
            raise ValueError(
                f"block has {block.shape[0]} rows, operator expects {self.w.shape[0]}"
            )
        return self._gram_kernel().pmf_apply(block, self.weights)

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """Apply the operator to a single vector."""
        return self.matmat(np.asarray(vector).reshape(-1, 1)).ravel()

    def to_dense(self) -> np.ndarray:
        """Materialize ``H`` densely (reference/testing only)."""
        return self.matmat(np.eye(self.w.shape[0]))

    __call__: Callable[[np.ndarray], np.ndarray] = matmat


class ProximityOperator:
    """Matrix-free MHP operator ``P = H W`` (paper Eq. 5).

    Behaves enough like a ``|U| x |V|`` matrix — supporting ``shape``,
    ``P @ block`` and ``P.T @ block`` — to be fed straight into the
    randomized SVD, enabling a best rank-k factorization of the truncated
    proximity matrix without materializing it (the MHP-BNE ablation).

    ``P @ x``   is evaluated as ``H (W x)``       — cost ``O((tau+1) |E| k)``.
    ``P.T @ y`` is evaluated as ``W^T (H y)``      — same cost, using that
    ``H`` is symmetric.
    """

    # Make `ndarray @ operator` defer to our __rmatmul__ instead of numpy
    # trying to treat the operator as a 0-d array.
    __array_ufunc__ = None

    def __init__(
        self,
        w: sp.spmatrix,
        weights: Sequence[float],
        *,
        policy: Optional[DtypePolicy] = None,
    ):
        self._h = MatrixFreeOperator(w, weights, policy=policy)
        self._w = self._h.w
        self._policy = self._h.policy
        self._sparse_kernel: Optional[SparseKernel] = None

    @property
    def shape(self) -> tuple:
        return self._w.shape

    @property
    def policy(self) -> DtypePolicy:
        return self._policy

    def _w_kernel(self) -> SparseKernel:
        if self._sparse_kernel is None:
            self._sparse_kernel = SparseKernel(self._h._w_compute, self._policy)
        return self._sparse_kernel

    def __matmul__(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block)
        cols = block.shape[1] if block.ndim == 2 else 1
        _obs_active().count_spmv(self._w.nnz, cols)
        # The intermediate W @ x goes straight into a reused buffer; the
        # H-apply copies it into its own workspace immediately.
        kernel = self._w_kernel()
        wx = kernel.matmul(block, reuse=True)
        _obs_active().note_threads(kernel.threads_used)
        return self._h.matmat(wx)

    def __rmatmul__(self, block: np.ndarray) -> np.ndarray:
        # block @ P  ==  (P.T @ block.T).T; needed for the Rayleigh-Ritz
        # projection step of the randomized SVD.
        return (self.T @ np.asarray(block).T).T

    @property
    def T(self) -> "_TransposedProximity":
        return _TransposedProximity(self)

    def to_dense(self) -> np.ndarray:
        """Materialize ``P`` densely (reference/testing only)."""
        return self @ np.eye(self._w.shape[1])


class _TransposedProximity:
    """The ``P.T`` view used by the randomized SVD's normal-equation steps."""

    def __init__(self, parent: ProximityOperator):
        self._parent = parent

    @property
    def shape(self) -> tuple:
        m, n = self._parent.shape
        return (n, m)

    def __matmul__(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block)
        cols = block.shape[1] if block.ndim == 2 else 1
        parent = self._parent
        _obs_active().count_spmv(parent._w.nnz, cols)
        hy = parent._h.matmat(block)
        # Fresh output (reuse=False): this is a public API return value.
        kernel = parent._w_kernel()
        out = kernel.t_matmul(hy, reuse=False)
        _obs_active().note_threads(kernel.threads_used)
        return out
