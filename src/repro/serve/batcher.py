"""Micro-batching: coalesce concurrent single-user queries into one GEMM.

A resident service under concurrent load sees many single-user top-``k``
requests in flight at once.  Answered one by one, each pays a full
``1 x |V|`` GEMV plus Python dispatch — exactly the per-user overhead the
batched :class:`~repro.tasks.topk.TopKEngine` exists to amortize.
:class:`MicroBatcher` closes the loop: requests enter a bounded queue, and a
single worker thread dispatches whenever it is idle.  It blocks for the
first request, takes only what is already queued behind it (up to
``max_batch``), stacks the user indices, and issues **one** blocked GEMM for
the whole batch.  A request whose caller cancelled its future (the HTTP tier
does on a deadline) before its batch started is dropped from the batch
instead of being scored.

Cost: there is no straggler window.  A lone request waits only for the
worker's wake-up (a thread hand-off, well under a millisecond) and is scored
at once.  Under load, requests that arrive while a batch is being scored
queue up and form the next batch, so coalescing happens exactly when the
worker is busy, and until more than ``max_batch`` requests queue, a request
waits at most for the batch in flight.  A batch costs one ``score_fn`` call
at ``n_max = max(n_i)`` plus a prefix slice per caller.

Correctness is inherited, not re-proved: the batch is scored with
``select_topn``'s total order (score descending, index ascending), so the
top-``n`` list of any user is the length-``n`` prefix of its top-``m`` list
for every ``m >= n``.  A batch therefore runs at ``n_max = max(n_i)`` and
slices each caller's prefix — element-identical to the direct
``TopKEngine.top_items`` call the caller would have made alone (pinned by
the hypothesis suite in ``tests/test_serve_batcher.py``).

The batcher owns no engine: it is constructed over a ``score_fn`` callable
(users, n) -> (items, scores, model), which the service binds to its per-thread
engine clone — the single worker thread gets a private clone, and artifact
hot-swaps propagate through the closure with no batcher involvement.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BatcherClosed", "BatchStats", "MicroBatcher", "QueueFull"]


class QueueFull(RuntimeError):
    """The batcher's admission queue is at capacity (caller should shed)."""


class BatcherClosed(RuntimeError):
    """submit() after close(): the server is stopping, not misbehaving.

    A typed subclass so the HTTP tier can answer a clean 503 during
    shutdown instead of treating it as an unhandled 500.
    """


@dataclass
class _Pending:
    """One queued single-user request."""

    user: int
    n: int
    with_scores: bool
    future: "Future"
    enqueued: float


@dataclass
class BatchStats:
    """Lock-guarded running tallies of the batcher's coalescing behavior.

    Only scored requests count: a request whose caller gave up before its
    batch started is dropped, not tallied.  Queue wait is the time from
    :meth:`MicroBatcher.submit` to the start of the batch that scores it.
    """

    batches: int = 0
    requests: int = 0
    max_batch_observed: int = 0
    queue_wait_s_total: float = 0.0
    queue_wait_s_max: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, queue_waits: Sequence[float]) -> None:
        """Tally one scored batch from its requests' queue waits (seconds)."""
        size = len(queue_waits)
        with self._lock:
            self.batches += 1
            self.requests += size
            if size > self.max_batch_observed:
                self.max_batch_observed = size
            self.queue_wait_s_total += sum(queue_waits)
            self.queue_wait_s_max = max([self.queue_wait_s_max, *queue_waits])

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "batches": self.batches,
                "requests": self.requests,
                "max_batch_observed": self.max_batch_observed,
                "mean_batch": self.requests / self.batches if self.batches else 0.0,
                "queue_wait_ms_mean": (
                    1e3 * self.queue_wait_s_total / self.requests
                    if self.requests
                    else 0.0
                ),
                "queue_wait_ms_max": 1e3 * self.queue_wait_s_max,
            }


class MicroBatcher:
    """A bounded queue + one worker thread that scores requests in batches.

    Parameters
    ----------
    score_fn:
        ``(users: int64 array, n: int) -> (items, scores, model)`` —
        typically a closure over a per-thread
        :class:`~repro.tasks.topk.TopKEngine` clone; ``model`` names the
        model version that scored the batch and is handed to every caller
        as is.  Called only from the single worker thread.
    max_batch:
        Most requests coalesced into one scoring call.
    max_queue:
        Queue capacity; :meth:`submit` raises :class:`QueueFull` beyond it
        instead of blocking (load-shedding stays at the caller).
    """

    def __init__(
        self,
        score_fn: Callable[[np.ndarray, int], Tuple[np.ndarray, np.ndarray, Any]],
        *,
        max_batch: int = 64,
        max_queue: int = 1024,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._score_fn = score_fn
        self.max_batch = int(max_batch)
        self._queue: "queue.Queue[Optional[_Pending]]" = queue.Queue(
            maxsize=max_queue
        )
        self._closed = threading.Event()
        self.stats = BatchStats()
        self._worker = threading.Thread(
            target=self._loop, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Caller side
    # ------------------------------------------------------------------
    def submit(
        self, user: int, n: int, *, with_scores: bool = False
    ) -> "Future":
        """Enqueue one single-user top-``n`` request; returns its future.

        The future resolves to ``(items, scores, model)`` — 1-D int64
        indices, the matching scores (``None`` unless ``with_scores``), and
        the ``model`` the batch's ``score_fn`` call returned, so a reply
        names the version that scored it even when a reload lands before
        the reply is sent.  Raises
        :class:`QueueFull` when the queue is at capacity and
        :class:`BatcherClosed` after :meth:`close`.
        """
        if self._closed.is_set():
            raise BatcherClosed("batcher is closed")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        pending = _Pending(
            user=int(user),
            n=int(n),
            with_scores=with_scores,
            future=Future(),
            enqueued=time.perf_counter(),
        )
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            raise QueueFull(
                f"batch queue at capacity ({self._queue.maxsize})"
            ) from None
        return pending.future

    @property
    def depth(self) -> int:
        """Requests currently queued (approximate, like ``Queue.qsize``)."""
        return self._queue.qsize()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker after draining queued requests (idempotent)."""
        if not self._closed.is_set():
            self._closed.set()
            self._queue.put(None)  # wake the worker
        self._worker.join(timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _collect(self) -> List[_Pending]:
        """Block for the first request, then take only what is already queued."""
        try:
            first = self._queue.get(timeout=0.1)
        except queue.Empty:
            return []
        if first is None:
            return []
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                break
            batch.append(item)
        return batch

    def _run_batch(self, batch: List[_Pending]) -> None:
        # Claim every future before scoring: a caller that already gave up
        # (deadline -> cancel()) is dropped here, and once claimed a future
        # can no longer be cancelled, so the results below always land.
        started = time.perf_counter()
        batch = [
            pending
            for pending in batch
            if pending.future.set_running_or_notify_cancel()
        ]
        if not batch:
            return
        self.stats.record([started - pending.enqueued for pending in batch])
        try:
            users = np.array([pending.user for pending in batch], dtype=np.int64)
            items, scores, model = self._score_fn(
                users, max(pending.n for pending in batch)
            )
            if len(items) != len(batch):
                raise ValueError(
                    f"score_fn returned {len(items)} rows for {len(batch)} users"
                )
            results = [
                (
                    np.asarray(items[row][: pending.n]),
                    np.asarray(scores[row][: pending.n])
                    if pending.with_scores
                    else None,
                    model,
                )
                for row, pending in enumerate(batch)
            ]
        except BaseException as exc:  # each result() re-raises; keep serving
            for pending in batch:
                pending.future.set_exception(exc)
            return
        for pending, result in zip(batch, results):
            pending.future.set_result(result)

    def _loop(self) -> None:
        while True:
            batch = self._collect()
            if batch:
                self._run_batch(batch)
            elif self._closed.is_set() and self._queue.empty():
                return
