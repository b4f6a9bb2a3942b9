"""Warm-started SVD refresh with a verified fallback to the cold path.

After a small edge delta, the dominant left subspace of ``W + dW`` is close
to that of ``W`` (Wedin's sin-theta theorem: the rotation is bounded by
``||dW|| / gap``).  :func:`refresh_svd` exploits this: it reruns the
randomized SVD with the old basis as the start block and a constant-sweep
iteration schedule (:func:`~repro.linalg.randomized_svd.warm_iteration_count`)
instead of the cold ``O(log n)`` one — counter-measurably fewer matvecs and
QR sweeps per refresh.

A warm start is a *heuristic*: nothing stops a caller from handing in a
basis from an unrelated matrix, or from a ``dW`` large enough that the
constant budget cannot re-converge.  The wrapper therefore measures the
per-triplet residual ``||A v_i - s_i u_i||`` of the warm result and, when it
exceeds the tolerance, recomputes **cold with a fresh generator seeded the
same way** — so the fallback is bit-identical to a fit that was never warm
started (the warm attempt consumes entropy only from its own generator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .policy import DtypePolicy
from .randomized_svd import MatrixLike, SVDResult, _make_appliers, randomized_svd

__all__ = [
    "RefreshInfo",
    "refresh_svd",
    "svd_residual",
    "default_residual_tolerance",
    "warm_basis_from_embedding",
]


def warm_basis_from_embedding(
    u: np.ndarray, effective_dimension: Optional[int] = None
) -> np.ndarray:
    """Recover the orthonormal left basis ``Phi`` from a stored ``U`` factor.

    GEBE^p embeds as ``U = Phi sqrt(Lambda)`` with orthogonal columns, so
    column-normalizing undoes the spectral scaling exactly.  Zero-padded
    columns (``k`` < requested dimension) and degenerate zero eigenvalues
    are dropped; pass ``effective_dimension`` (the fit metadata's value) to
    skip the padding up front.  The result is the ``warm_start`` argument
    :func:`refresh_svd` and :class:`~repro.core.gebe_p.GEBEPoisson` expect.
    """
    basis = np.asarray(u, dtype=np.float64)
    if basis.ndim != 2:
        raise ValueError(f"u must be 2-D, got shape {basis.shape}")
    if effective_dimension is not None:
        basis = basis[:, : int(effective_dimension)]
    norms = np.linalg.norm(basis, axis=0)
    keep = norms > 0
    return basis[:, keep] / norms[keep]


def default_residual_tolerance(epsilon: float) -> float:
    """Residual acceptance threshold for a warm refresh.

    The cold randomized SVD targets a ``(1 + epsilon)`` low-rank error, and
    its converged triplets exhibit relative residuals well below
    ``sqrt(epsilon)``.  Accepting a warm result up to ``sqrt(epsilon) / 2``
    keeps it inside the same guarantee class while rejecting bases that the
    warm budget could not rotate into place.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return math.sqrt(epsilon) / 2.0


def svd_residual(
    matrix: MatrixLike, svd: SVDResult, policy: Optional[DtypePolicy] = None
) -> float:
    """Relative triplet residual ``||A V - U diag(S)||_F / ||S||_2``.

    Zero for exact singular triplets regardless of truncation rank (since
    ``A v_i = s_i u_i`` holds exactly), so this measures *convergence* of
    the returned triplets, not the truncation error.  One ``k``-wide apply
    of ``A`` (counted against the obs matvec counters like any other),
    through the same kernels as the SVD itself: ``policy`` supplies their
    threads and staging budget, and the apply always runs in float64.
    """
    policy = replace(policy if policy is not None else DtypePolicy(), compute="float64")
    apply, _ = _make_appliers(matrix, policy)
    image = apply(svd.vt.T)
    scale = float(svd.s[0]) if svd.rank and float(svd.s[0]) > 0.0 else 1.0
    return float(np.linalg.norm(image - svd.u * svd.s) / scale)


@dataclass(frozen=True)
class RefreshInfo:
    """How a :func:`refresh_svd` call resolved.

    Attributes
    ----------
    mode:
        ``"warm"`` — the warm result passed the residual check and was
        returned; ``"cold_fallback"`` — the warm attempt was rejected (or
        structurally impossible) and the returned result is the
        bit-identical cold fit.
    reason:
        ``"ok"`` for accepted warm results; ``"residual"`` when the warm
        residual exceeded the tolerance; ``"incompatible"`` when the warm
        basis had the wrong row count or no columns; ``"no_warm_start"``
        when no basis was supplied at all.
    residual:
        Measured warm-result residual (``nan`` when no warm attempt ran).
    tolerance:
        The acceptance threshold used.
    warm_rank:
        Number of columns in the supplied warm basis.
    """

    mode: str
    reason: str
    residual: float
    tolerance: float
    warm_rank: int

    def to_dict(self) -> dict:
        # nan (no warm attempt ran) maps to None so the dict is valid JSON
        # and passes the RunReport v6 refresh-section validation as-is.
        residual = float(self.residual)
        return {
            "mode": self.mode,
            "reason": self.reason,
            "residual": None if math.isnan(residual) else residual,
            "tolerance": self.tolerance,
            "warm_rank": self.warm_rank,
        }


def refresh_svd(
    matrix: MatrixLike,
    k: int,
    epsilon: float = 0.1,
    *,
    warm_start: Optional[np.ndarray],
    n_oversamples: int = 8,
    strategy: str = "power",
    seed: Optional[int] = None,
    policy: Optional[DtypePolicy] = None,
    residual_tolerance: Optional[float] = None,
) -> "tuple[SVDResult, RefreshInfo]":
    """Top-``k`` SVD of ``matrix``, warm-started when the basis checks out.

    Parameters
    ----------
    matrix, k, epsilon, n_oversamples, strategy, policy:
        As for :func:`~repro.linalg.randomized_svd.randomized_svd`.
    warm_start:
        ``m x r`` left basis of a nearby matrix (e.g. the ``u`` factor of
        the pre-delta ``W``), or ``None`` to force the cold path.
    seed:
        Seed for the Gaussian blocks.  The warm attempt and the cold
        fallback each construct their **own** generator from this seed, so
        a fallback (and a ``warm_start=None`` call) is bit-identical to a
        plain seeded :func:`randomized_svd` — warm attempts never perturb
        the cold stream.  ``None`` draws OS entropy (no bit-identity).
    residual_tolerance:
        Acceptance threshold for the warm residual; defaults to
        :func:`default_residual_tolerance`.

    Returns
    -------
    (SVDResult, RefreshInfo)
        The factorization plus how it was obtained.
    """
    tolerance = (
        residual_tolerance
        if residual_tolerance is not None
        else default_residual_tolerance(epsilon)
    )

    def cold(reason: str, residual: float) -> "tuple[SVDResult, RefreshInfo]":
        result = randomized_svd(
            matrix,
            k,
            epsilon,
            n_oversamples=n_oversamples,
            strategy=strategy,
            rng=np.random.default_rng(seed),
            policy=policy,
        )
        info = RefreshInfo(
            mode="cold_fallback",
            reason=reason,
            residual=residual,
            tolerance=tolerance,
            warm_rank=0 if warm_start is None else int(np.asarray(warm_start).shape[-1]),
        )
        return result, info

    if warm_start is None:
        return cold("no_warm_start", float("nan"))
    ws = np.asarray(warm_start, dtype=np.float64)
    if ws.ndim != 2 or ws.shape[0] != matrix.shape[0] or ws.shape[1] < 1:
        return cold("incompatible", float("nan"))

    warm = randomized_svd(
        matrix,
        k,
        epsilon,
        n_oversamples=n_oversamples,
        strategy=strategy,
        rng=np.random.default_rng(seed),
        policy=policy,
        warm_start=ws,
    )
    residual = svd_residual(matrix, warm, policy)
    if residual <= tolerance:
        info = RefreshInfo(
            mode="warm",
            reason="ok",
            residual=residual,
            tolerance=tolerance,
            warm_rank=int(ws.shape[1]),
        )
        return warm, info
    return cold("residual", residual)
