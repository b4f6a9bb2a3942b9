"""Randomized truncated SVD (block Krylov and power-iteration variants).

GEBE^p (Algorithm 2, Line 1) factorizes the sparse weight matrix ``W`` with
the randomized block Krylov method of Musco & Musco [NeurIPS 2015], which
reaches a ``(1 + eps)`` low-rank approximation in
``O(log(n) / sqrt(eps))`` iterations.  We implement that method from scratch
on top of numpy/scipy primitives — no ``sklearn`` and no
``scipy.sparse.linalg.svds``.

Two strategies are provided:

* ``"power"`` (default) — classic randomized subspace (power) iteration
  [Halko-Martinsson-Tropp]; each iteration touches only a ``k + p`` wide
  block, so the constants are small and the method scales to the largest
  benchmark graphs.
* ``"block_krylov"`` — build the Krylov block
  ``[A G, (A A^T) A G, ..., (A A^T)^q A G]``, orthonormalize, and
  Rayleigh-Ritz project.  This is the paper's reference ``RandomizedSVD``
  (faster convergence per iteration, but the ``(q+1)(k+p)``-wide final
  orthogonalization makes it the costlier choice on wide blocks).

Each power sweep orthonormalizes one block, the one on the shorter side,
with :func:`~repro.linalg.qr.thin_qr`: the ``n x b`` block ``A^T (A Q)``
when ``m > n``, else the ``m x b`` block ``A (A^T Q)``.  ``span(A Q)``
depends only on ``span(Q)``, so the skipped QR keeps the subspace; when
``m > n`` the ``m``-side basis is orthonormalized once, after the last
sweep.  A cold power fit therefore makes ``q + 1`` QRs, and the paper's
per-sweep ``|U| k^2`` term becomes ``min(m, n) k^2`` plus one
``max(m, n) k^2`` at the end.  The price is resolution: an unnormalized
``A^T A Q`` keeps directions down to about ``sqrt(u) sigma_1`` (``u`` the
unit roundoff; 1.5e-8 in float64, 3.5e-4 for a float32 compute policy)
instead of ``u sigma_1`` [Halko-Martinsson-Tropp, Section 4.5], and the QR
sees the squared condition number of its block.  The blocks are tall, so
they take ``thin_qr``'s CholeskyQR2 path (GEMM-bound) unless nearly rank
deficient; the concatenated, nearly dependent Krylov block of
``"block_krylov"`` falls back to Householder inside ``thin_qr``.

The Rayleigh-Ritz step fixes every singular vector's sign: each column of
``u`` is flipped, with the matching row of ``vt``, so that its
largest-magnitude entry is positive.  Rounding otherwise picks the sign of
a vector whose singular value sits near the resolution floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..obs import active as _obs_active
from .kernels import SparseKernel
from .policy import DtypePolicy
from .qr import thin_qr

__all__ = [
    "SVDResult",
    "randomized_svd",
    "krylov_iteration_count",
    "warm_iteration_count",
    "exact_svd",
]

MatrixLike = Union[np.ndarray, sp.spmatrix]


def _is_store(matrix: MatrixLike) -> bool:
    """Whether ``matrix`` is a memory-mapped CSR view (StoreCSR or its
    transpose) rather than a scipy matrix, ndarray, or matrix-free operator."""
    if sp.issparse(matrix) or isinstance(matrix, np.ndarray):
        return False
    return hasattr(matrix, "indptr") or hasattr(
        getattr(matrix, "T", None), "indptr"
    )


def _count_apply(matrix: MatrixLike, cols: int) -> None:
    """Record one ``matrix @ block`` (or transposed) against a ``cols``-wide block.

    Sparse inputs — resident scipy matrices and memory-mapped store views
    alike — count as ``cols`` sparse matvecs, dense inputs as one GEMM;
    matrix-free operators (e.g. the MHP :class:`~repro.linalg.ops.
    ProximityOperator`) count internally and are skipped here.
    """
    if sp.issparse(matrix) or _is_store(matrix):
        _obs_active().count_spmv(matrix.nnz, cols)
    elif isinstance(matrix, np.ndarray):
        _obs_active().count_gemm(matrix.shape[0], matrix.shape[1], cols)


Applier = Callable[[np.ndarray], np.ndarray]


def _make_appliers(
    matrix: MatrixLike, policy: DtypePolicy
) -> Tuple[Applier, Applier]:
    """``(apply, apply_t)`` closures computing ``A @ B`` and ``A.T @ B``.

    Sparse matrices route through the workspace-reusing
    :class:`~repro.linalg.kernels.SparseKernel` (bit-identical to scipy's
    ``@`` in float64); dense arrays and
    matrix-free operators (e.g. :class:`~repro.linalg.ops.ProximityOperator`)
    keep the generic ``matrix @ block`` path.  Memory-mapped
    :class:`~repro.graph.store.StoreCSR` inputs take the same kernel route,
    which stages budget-bounded row blocks instead of touching the whole
    mapping; their staging traffic is delta-reported to the collector after
    every apply.  Both closures own the obs accounting at the same
    per-apply granularity as before.
    """
    store = _is_store(matrix)
    if sp.issparse(matrix) or store:
        kernel = SparseKernel(matrix, policy)
        matrix_t = matrix.T  # only consulted by _count_apply (for .nnz)
        ooc_reported = [0]

        def _note_kernel() -> None:
            # Main-thread reporting of the sharded execution's footprint.
            collector = _obs_active()
            collector.note_threads(kernel.threads_used)
            collector.note_workspace(kernel.workspace_bytes())
            if store:
                total = kernel.ooc_bytes_copied()
                if total > ooc_reported[0]:
                    collector.count_ooc_copy(total - ooc_reported[0])
                    ooc_reported[0] = total

        def apply(block: np.ndarray) -> np.ndarray:
            _count_apply(matrix, block.shape[1])
            # reuse=True is safe: apply and apply_t write separate buffers
            # (out_u and out_v), and each product is consumed — by
            # thin_qr, whose Q never aliases its input, or by the apply on
            # the other side — before the next product on its own side.
            out = kernel.matmul(block, reuse=True)
            _note_kernel()
            return out

        def apply_t(block: np.ndarray) -> np.ndarray:
            _count_apply(matrix_t, block.shape[1])
            out = kernel.t_matmul(block, reuse=True)
            _note_kernel()
            return out

    else:

        def apply(block: np.ndarray) -> np.ndarray:
            _count_apply(matrix, block.shape[1])
            return np.asarray(matrix @ block)

        def apply_t(block: np.ndarray) -> np.ndarray:
            _count_apply(matrix.T, block.shape[1])
            return np.asarray(matrix.T @ block)

    return apply, apply_t


@dataclass(frozen=True)
class SVDResult:
    """A rank-k factorization ``A ~= U @ diag(S) @ Vt``.

    Attributes
    ----------
    u:
        ``m x k`` left singular vectors (the paper's ``Phi'_k``).
    s:
        Length-``k`` non-increasing singular values (``Sigma'_k`` diagonal).
    vt:
        ``k x n`` right singular vectors, transposed.

    :func:`randomized_svd` makes the signs deterministic: every column of
    ``u`` has its largest-magnitude entry positive (on a tie between a
    positive and a negative entry the column is left as computed), and
    each row of ``vt`` carries the sign of its ``u`` column.
    :func:`exact_svd` keeps LAPACK's signs.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Materialize the rank-k approximation (tests / small inputs only)."""
        return (self.u * self.s) @ self.vt


def krylov_iteration_count(n: int, epsilon: float, strategy: str = "block_krylov") -> int:
    """Iteration schedule for the ``(1+epsilon)`` low-rank guarantee.

    Theorem 1 of Musco & Musco prescribes ``q = Theta(log(n) / sqrt(eps))``
    block Krylov iterations — the complexity expression quoted in the paper
    (Section 5.2).  The theta hides a small constant; production
    implementations use a fraction of ``log(n)/sqrt(eps)`` and cap the
    depth, because each Krylov block widens the final orthogonalization.
    Schedules used here (both floor at 2, monotone in ``n`` and ``1/eps``):

    * ``"block_krylov"`` — ``ceil(log(n) / (2 sqrt(eps)))`` capped at 10
      (beyond that the ``O(n (q b)^2)`` Rayleigh-Ritz cost dominates);
    * ``"power"`` — ``ceil(log(n) / (2 sqrt(eps)))`` capped at 40 (each
      power iteration is narrow, so depth is cheap).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    q = math.ceil(math.log(max(n, 2)) / (2.0 * math.sqrt(epsilon)))
    cap = 10 if strategy == "block_krylov" else 40
    return min(cap, max(2, q))


def exact_svd(matrix: MatrixLike, k: int) -> SVDResult:
    """Exact truncated SVD via dense LAPACK (reference for tests)."""
    if sp.issparse(matrix):
        dense = matrix.toarray()
    elif hasattr(matrix, "to_scipy"):
        dense = matrix.to_scipy().toarray()
    else:
        dense = np.asarray(matrix, dtype=float)
    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    return SVDResult(u=u[:, :k], s=s[:k], vt=vt[:k])


def warm_iteration_count(n: int, epsilon: float, strategy: str = "power") -> int:
    """Iteration schedule for a warm-started refresh.

    A warm start already spans (approximately) the dominant subspace of the
    pre-delta matrix, so the iteration's job is only to *rotate* that
    subspace toward the perturbed one — a contraction that needs a constant
    number of sweeps for a small ``dW``, not the cold ``O(log n)`` schedule.
    We run a quarter of the cold schedule, floored at one sweep; the caller
    (:func:`~repro.linalg.refresh.refresh_svd`) guards quality with an
    explicit residual check and falls back to the cold path when the delta
    was too large for this budget.
    """
    return max(1, krylov_iteration_count(n, epsilon, strategy) // 4)


def _warm_block(
    warm_start: np.ndarray,
    m: int,
    block_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Orthonormal ``m x block_size`` start block seeded by a left basis.

    The warm columns are kept verbatim; Gaussian columns are appended to
    reach the oversampled width (they give the iteration room to pick up
    directions the ancestor basis lost), and one thin QR orthonormalizes
    the ensemble.
    """
    ws = np.asarray(warm_start, dtype=np.float64)
    if ws.ndim != 2 or ws.shape[0] != m:
        raise ValueError(
            f"warm_start must be an {m} x r left basis, got shape {ws.shape}"
        )
    if ws.shape[1] < 1:
        raise ValueError("warm_start must have at least one column")
    if ws.shape[1] >= block_size:
        block = ws[:, :block_size]
    else:
        pad = rng.standard_normal((m, block_size - ws.shape[1]))
        block = np.hstack([ws, pad])
    block, _ = thin_qr(block)
    return block


def randomized_svd(
    matrix: MatrixLike,
    k: int,
    epsilon: float = 0.1,
    *,
    n_oversamples: int = 8,
    iterations: Optional[int] = None,
    strategy: str = "power",
    rng: Optional[np.random.Generator] = None,
    policy: Optional[DtypePolicy] = None,
    warm_start: Optional[np.ndarray] = None,
) -> SVDResult:
    """Approximate the top-``k`` singular triplets of ``matrix``.

    Parameters
    ----------
    matrix:
        The ``m x n`` (sparse or dense) matrix to factorize.
    k:
        Target rank, ``0 < k <= min(m, n)``.
    epsilon:
        Error parameter controlling the iteration count (Algorithm 2's
        ``eps``); smaller is more accurate and slower.
    n_oversamples:
        Extra columns (``>= 0``) in the random start block beyond ``k``.
    iterations:
        Explicit iteration count (``>= 0``), overriding the ``epsilon``
        schedule.
    strategy:
        ``"power"`` (HMT randomized subspace iteration, default — same
        guarantee class with lower constants in numpy) or
        ``"block_krylov"`` (the Musco-Musco method the paper cites).
    rng:
        Random generator for the Gaussian start block.
    policy:
        Optional :class:`~repro.linalg.policy.DtypePolicy` selecting the
        compute dtype and workspace kernels for sparse inputs (``None``
        means the default float64 workspace policy, bit-identical to the
        reference path).  The Rayleigh-Ritz projection and all QR steps
        accumulate in float64 regardless.
    warm_start:
        Optional ``m x r`` left-singular basis (``r >= 1``) of a nearby
        matrix — typically the ``u`` factor of the pre-delta ``W`` — used
        in place of the Gaussian start block.  The basis is padded with
        Gaussian columns to the oversampled width, orthonormalized, and
        the *warm* iteration schedule (:func:`warm_iteration_count`,
        roughly a quarter of the cold one) is used unless ``iterations``
        is explicit.  The returned factorization is only as good as the
        warm basis is close; callers that need a guarantee should verify
        the residual and fall back (see :mod:`repro.linalg.refresh`).
        ``None`` (default) reproduces the cold path bit-for-bit.

    Returns
    -------
    SVDResult
        Top-``k`` singular vectors and values; values are clipped to be
        non-negative and sorted non-increasing.
    """
    m, n = matrix.shape
    if not 0 < k <= min(m, n):
        raise ValueError(f"need 0 < k <= min(m, n) = {min(m, n)}, got k={k}")
    if strategy not in ("block_krylov", "power"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    if n_oversamples < 0:
        raise ValueError(f"n_oversamples must be >= 0, got {n_oversamples}")
    if iterations is not None and iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    rng = np.random.default_rng() if rng is None else rng
    policy = policy if policy is not None else DtypePolicy()
    apply, apply_t = _make_appliers(matrix, policy)

    block_size = min(k + n_oversamples, min(m, n))
    if iterations is not None:
        q = iterations
    elif warm_start is not None:
        q = warm_iteration_count(n, epsilon, strategy)
    else:
        q = krylov_iteration_count(n, epsilon, strategy)

    long_u = m > n
    collector = _obs_active()
    with collector.stage("rsvd"):
        if warm_start is not None:
            block0 = _warm_block(warm_start, m, block_size, rng)
            collector.note_array(block0.nbytes)
            if strategy == "block_krylov":
                with collector.stage("block_krylov"):
                    basis = _block_krylov_from(apply, apply_t, block0, q)
            else:
                with collector.stage("power_iter"):
                    basis = _power_iteration_from(
                        apply, apply_t, block0, q, long_u
                    )
        else:
            omega = rng.standard_normal((n, block_size))
            collector.note_array(omega.nbytes)
            if strategy == "block_krylov":
                with collector.stage("block_krylov"):
                    basis = _block_krylov_basis(apply, apply_t, omega, q)
            else:
                with collector.stage("power_iter"):
                    basis = _power_iteration_basis(
                        apply, apply_t, omega, q, long_u
                    )

        # Rayleigh-Ritz: project onto the basis, solve the small dense SVD.
        # Always against the original (float64) matrix — this is the
        # policy's float64-accumulation step.
        with collector.stage("rayleigh_ritz"):
            if _is_store(matrix):
                # (W^T Q)^T == Q^T W entry-for-entry; routing through the
                # transpose applier keeps the projection budget-bounded.
                # apply_t owns the operation count for this apply.
                projected = np.ascontiguousarray(apply_t(basis).T)
            else:
                _count_apply(matrix, basis.shape[1])
                projected = np.asarray(basis.T @ matrix)  # c x n, dense
            collector.count_svd(projected.shape[0], projected.shape[1])
            u_small, s, vt = np.linalg.svd(projected, full_matrices=False)
            collector.count_gemm(basis.shape[0], basis.shape[1], u_small.shape[1])
            u = basis @ u_small
            # Deterministic signs (see SVDResult): flip a column whose most
            # negative entry outweighs its most positive one.  The max/min
            # reductions allocate no |U| x b temporary, nor does the
            # in-place multiply.
            signs = np.where(-u.min(axis=0) > u.max(axis=0), -1.0, 1.0)
            u *= signs
            vt *= signs[:, np.newaxis]
    s = np.clip(s, 0.0, None)
    return SVDResult(u=u[:, :k], s=s[:k], vt=vt[:k])


def _block_krylov_basis(
    apply: Applier, apply_t: Applier, omega: np.ndarray, q: int
) -> np.ndarray:
    """Orthonormal basis of the block Krylov space of ``A A^T`` applied to ``A G``.

    Each block is orthonormalized before the next multiplication to keep the
    Krylov directions from collapsing onto the dominant singular vector
    (numerical re-orthogonalization, standard for block Lanczos-style
    methods).
    """
    block = apply(omega)  # m x b
    block, _ = thin_qr(np.asarray(block))
    return _block_krylov_from(apply, apply_t, block, q)


def _power_iteration_basis(
    apply: Applier, apply_t: Applier, omega: np.ndarray, q: int, long_u: bool
) -> np.ndarray:
    """Orthonormal basis from randomized subspace (power) iteration.

    The ``A @ omega`` lift is orthonormalized only when the ``m`` side is
    the shorter one (``long_u`` false); otherwise the first sweep's
    ``n``-side QR normalizes it.  Either way the fit makes ``q + 1`` QRs.
    """
    block = apply(omega)
    if not long_u:
        block, _ = thin_qr(np.asarray(block))
    return _power_iteration_from(
        apply, apply_t, block, q, long_u, orthonormal=not long_u
    )


def _power_iteration_from(
    apply: Applier,
    apply_t: Applier,
    block: np.ndarray,
    q: int,
    long_u: bool,
    *,
    orthonormal: bool = True,
) -> np.ndarray:
    """Power-iteration sweeps from an ``m``-side block; one QR per sweep.

    Each ``A^T`` / ``A`` sweep orthonormalizes only the block on the
    shorter side: the ``n``-side block when ``long_u`` (``m > n``), else
    the ``m``-side one, so ``block`` must be ``orthonormal`` unless
    ``long_u``.  When ``long_u`` the ``m``-side block stays unnormalized
    between sweeps and gets one QR after the last, skipped only when an
    orthonormal start ran no sweep (a warm start at ``q = 0``).  The warm
    path enters here directly with its orthonormal start; the cold path
    after its lift.
    """
    for _ in range(q):
        block = apply_t(block)
        if long_u:
            block, _ = thin_qr(np.asarray(block))
        block = apply(block)
        if not long_u:
            block, _ = thin_qr(np.asarray(block))
    if long_u and (q > 0 or not orthonormal):
        block, _ = thin_qr(np.asarray(block))
    return block


def _block_krylov_from(
    apply: Applier, apply_t: Applier, block: np.ndarray, q: int
) -> np.ndarray:
    """Block Krylov basis grown from an orthonormal ``m``-side block."""
    blocks = [block]
    for _ in range(q):
        block = apply(apply_t(block))
        block, _ = thin_qr(np.asarray(block))
        blocks.append(block)
    krylov = np.hstack(blocks)
    basis, _ = thin_qr(krylov)
    return basis
