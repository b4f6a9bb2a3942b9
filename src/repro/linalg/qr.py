"""QR utilities: orthonormalization and random semi-unitary starts.

Krylov subspace iteration (Algorithm 1, Line 7) re-orthonormalizes a tall
``m x n`` iterate block with a thin QR decomposition every iteration.  The
randomized SVD's power iteration (Algorithm 2, Line 1) orthonormalizes one
block per sweep, the one on the shorter side, plus the ``|U|``-side basis
once at the end when ``|U| > |V|``: the ``|U| k^2`` term of GEBE^p's cost
becomes ``min(|U|, |V|) k^2`` per sweep.  :func:`thin_qr` computes it with
**CholeskyQR2** (Fukaya et al., 2014; Yamamoto et al., 2015): two passes of
``R = chol(X^T X)``, ``Q = X R^-1``, so the work is one Gram GEMM, a
``n x n`` Cholesky and triangular inverse, and one GEMM per pass — instead
of LAPACK Householder's level-2 panels plus a separate ``orgqr``.  Two
passes reach Householder-level orthogonality whenever ``cond(X)`` is well
inside ``u^-1/2``.  A power sweep's block is ``W^T W Q`` (or ``W W^T Q``)
with no QR in between, so it carries ``cond(W_b)^2``, the square of a
one-sided block's condition number; the normalized ``W``'s blocks stay
inside the bound, and more near rank-deficient blocks take the Householder
fallback below than under a QR on both sides — slower, not less accurate.

Householder QR stays as the fallback for inputs the fast path cannot factor
stably: blocks that are not tall (``m < 2n``), a failed Cholesky or
triangular inverse (rank-deficient or badly conditioned blocks), and a
second-pass factor ``R2`` that is non-finite or drifts more than ``0.5``
from the identity (the first pass lost too much orthogonality for the
two-pass guarantee to hold; NaN input lands here too).  Either path
returns ``R`` with a non-negative diagonal — Cholesky factors have one by
construction, Householder gets a sign fix — so factorizations are
deterministic and the Ritz values read off ``R`` (Algorithm 1 Lines 8-10)
are non-negative as the paper assumes.  This module also holds the random
semi-unitary initializer from Line 1.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from ..obs import active as _obs_active

__all__ = ["thin_qr", "random_semi_unitary", "is_semi_unitary"]

# Largest entry of |R2 - I| the second CholeskyQR pass may show before the
# Householder fallback takes over: beyond it the first pass lost too much
# orthogonality for the two-pass guarantee to hold.
_MAX_SECOND_PASS_DRIFT = 0.5


def thin_qr(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Economic QR ``block = Q R`` with ``diag(R) >= 0``.

    Tall blocks (``m >= 2n``) take CholeskyQR2; everything the fast path
    cannot factor stably falls back to Householder with a sign fix (see the
    module docstring).  ``Q`` is always a fresh C-contiguous array — it
    never shares memory with ``block``, so callers may hand in a reusable
    kernel workspace.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError("thin_qr expects a 2-D array")
    m, n = block.shape
    collector = _obs_active()
    collector.count_qr(m, n)
    collector.note_array(block.nbytes)
    if 0 < n and 2 * n <= m:  # LAPACK rejects an empty dtrtri
        factors = _cholesky_qr2(block)
        if factors is not None:
            return factors
    return _householder_qr(block)


def _cholesky_factor(x: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Upper Cholesky factor ``R`` of ``x.T @ x`` and ``R^-1``, or ``None``
    when either LAPACK call reports failure."""
    r, info = dpotrf(x.T @ x, lower=False, clean=True, overwrite_a=True)
    if info != 0:
        return None
    r_inv, info = dtrtri(r, lower=False)
    if info != 0:
        return None
    return r, r_inv


def _cholesky_qr2(x: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """CholeskyQR2, or ``None`` when the Householder fallback must run.

    ``Q`` is formed as ``X @ R^-1`` (explicit triangular inverse + GEMM):
    at the narrow widths used here that beats a ``dtrsm`` solve, and the
    GEMM returns ``Q`` C-contiguous, the layout the sparse kernels consume
    without staging.
    """
    first = _cholesky_factor(x)
    if first is None:
        return None
    r1, r1_inv = first
    q1 = x @ r1_inv
    second = _cholesky_factor(q1)
    if second is None:
        return None
    r2, r2_inv = second
    if not np.isfinite(r2).all():
        return None
    if np.abs(r2 - np.eye(r2.shape[0])).max() > _MAX_SECOND_PASS_DRIFT:
        return None
    return q1 @ r2_inv, r2 @ r1


def _householder_qr(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LAPACK Householder QR with the deterministic sign fix.

    LAPACK leaves the signs of the ``R`` diagonal arbitrary; columns of
    ``Q`` (and rows of ``R``) are flipped so every diagonal entry of ``R``
    is non-negative.
    """
    q, r = np.linalg.qr(block, mode="reduced")
    diag = np.diagonal(r).copy()
    signs = np.where(diag < 0, -1.0, 1.0)
    q = q * signs[np.newaxis, :]
    r = r * signs[:, np.newaxis]
    return q, r


def random_semi_unitary(
    n: int, k: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """A random ``n x k`` matrix ``Z`` with ``Z.T @ Z = I`` (Algorithm 1 Line 1).

    Drawn by orthonormalizing a Gaussian block, which yields a sample from
    the Haar measure on the Stiefel manifold.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got n={n}, k={k}")
    rng = np.random.default_rng() if rng is None else rng
    gaussian = rng.standard_normal((n, k))
    q, _ = thin_qr(gaussian)
    return q


def is_semi_unitary(block: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether ``block.T @ block`` is the identity, within ``tol``."""
    block = np.asarray(block, dtype=np.float64)
    gram = block.T @ block
    return bool(np.allclose(gram, np.eye(block.shape[1]), atol=tol))
