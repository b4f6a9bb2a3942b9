"""Deterministic top-n selection: the serving path's ranking primitive.

Every read-out of the embeddings — per-user queries, the batched retrieval
engine of :mod:`repro.tasks.topk`, the CLI — ranks items by score and keeps
the best ``n``.  Doing that with a full ``argsort`` costs ``O(m log m)`` per
user; :func:`select_topn` does it in ``O(m + n log n)`` while pinning down
the one thing a partial sort leaves undefined: tie handling.

Cost
----
Per ``(rows, m)`` block: one ``np.partition`` of the scores as they are
(it finds each row's boundary, the ``n``-th largest value), one ``>=`` pass
against that boundary, one pass over the resulting mask to read off the
candidate columns, and a stable sort of only the ``rows x n`` candidates.
Rows whose candidate count is not ``n`` take a fix-up first: rows with
boundary ties past ``n`` cost three more vectorized passes over those rows,
and rows where NaN took boundary places (``np.partition`` ranks NaN above
every number) are resolved one at a time by :func:`_fill_row`.  Neither
happens when each row's boundary value is unique, the common case for
embedding dot products.

Ordering contract
-----------------
Selected indices are ordered by ``(score descending, index ascending)``.
Ties — including ties at the selection boundary — always resolve to the
*smallest* indices, so the output is a pure function of the score values:
it does not depend on partition internals, on whether the scores arrived
one row at a time or as a block, or on how a block was split.  That is the
property the batched engine's differential suite pins: batch and per-user
paths share this function, so identical scores give identical lists.

``-inf`` scores (the exclusion marker used by the recommendation read-out)
participate normally: excluded items still appear, last and in index
order, when fewer than ``n`` candidates remain — matching the historical
:meth:`EmbeddingResult.top_items` behavior.  NaN ranks below ``-inf``: it
is never selected while ``n`` other scores remain, and fills the tail of a
row in index order when they do not.
"""

from __future__ import annotations

import numpy as np

__all__ = ["select_topn"]


def select_topn(scores: np.ndarray, n: int) -> np.ndarray:
    """Indices of the ``n`` largest entries per row, deterministically.

    Parameters
    ----------
    scores:
        1-D ``(m,)`` or 2-D ``(rows, m)`` score array.  Not modified.
    n:
        How many indices to keep per row; capped at ``m``.

    Returns
    -------
    np.ndarray
        ``int64`` indices, shape ``(min(n, m),)`` for 1-D input and
        ``(rows, min(n, m))`` for 2-D input, ordered by score descending
        with ties broken toward the smaller index.
    """
    scores = np.asarray(scores)
    if scores.ndim not in (1, 2):
        raise ValueError(f"scores must be 1-D or 2-D, got {scores.ndim}-D")
    squeeze = scores.ndim == 1
    block = scores.reshape(1, -1) if squeeze else scores
    rows, m = block.shape
    n = min(int(n), m)
    if n <= 0 or rows == 0:
        empty = np.empty((rows, max(n, 0)), dtype=np.int64)
        return empty[0] if squeeze else empty

    # The n-th largest value per row is the selection boundary; on a row
    # without ties there or NaN, exactly n scores reach it.
    kth = np.partition(block, m - n, axis=1)[:, m - n : m - n + 1]
    candidates = block >= kth
    # Flat indices walk row-major, so per row the columns come out ascending.
    flat = np.flatnonzero(candidates)
    counts = np.bincount(flat // m, minlength=rows)
    if (counts != n).any():
        # Boundary ties past n: everything above the boundary is in, and
        # the ties fill the remaining places in index order.
        wide = np.flatnonzero(counts > n)
        sub, edge = block[wide], kth[wide]
        above = sub > edge
        ties = sub == edge
        need = n - np.count_nonzero(above, axis=1)
        candidates[wide] = above | (
            ties & (np.cumsum(ties, axis=1) <= need[:, None])
        )
        for row in np.flatnonzero(counts < n):
            # NaN took boundary places (np.partition ranks it above every
            # number).
            candidates[row] = False
            candidates[row, _fill_row(block[row], n)] = True
        flat = np.flatnonzero(candidates)
    picked = flat.reshape(rows, n) % m
    # The stable sort keeps the smaller index first among equal scores.
    order = np.argsort(
        -np.take_along_axis(block, picked, axis=1), axis=1, kind="stable"
    )
    picked = np.take_along_axis(picked, order, axis=1).astype(np.int64, copy=False)
    return picked[0] if squeeze else picked


def _fill_row(row: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` selected columns of one row that holds NaN.

    The largest ``n`` other scores are in, boundary ties filled in index
    order; NaN fills in index order only once every other score is in.
    """
    nan = np.isnan(row)
    real = np.flatnonzero(~nan)
    if real.size <= n:
        return np.concatenate([real, np.flatnonzero(nan)[: n - real.size]])
    values = row[real]
    kth = np.partition(values, real.size - n)[real.size - n]
    keep = values > kth
    keep[np.flatnonzero(values == kth)[: n - np.count_nonzero(keep)]] = True
    return real[keep]
