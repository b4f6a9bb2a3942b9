"""Micro-batcher equivalence and lifecycle tests (repro.serve.batcher).

The load-bearing property: however concurrent single-user requests
interleave, and however the worker happens to slice them into batches, every
caller receives lists **element-identical** to
:meth:`repro.core.base.EmbeddingResult.top_items_batch` — the offline
serving read-out.  That holds because ``select_topn``'s total order (score
descending, index ascending) makes every top-``n`` list the length-``n``
prefix of the top-``m`` list for ``m >= n``, so scoring a batch at
``n_max`` and slicing prefixes loses nothing.

This file is in the Makefile's THREADED_TESTS: it reruns under
``REPRO_NUM_THREADS=4`` so the property also holds when the scoring engine
itself runs on a parallel executor.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import EmbeddingResult
from repro.graph import BipartiteGraph
from repro.serve import BatcherClosed, BatchStats, MicroBatcher, QueueFull
from repro.tasks import TopKEngine

NUM_USERS = 30
NUM_ITEMS = 25
N_CAP = 12  # largest n any generated request asks for


@pytest.fixture(scope="module")
def result():
    rng = np.random.default_rng(7)
    return EmbeddingResult(
        u=rng.standard_normal((NUM_USERS, 5)),
        v=rng.standard_normal((NUM_ITEMS, 5)),
        method="random",
    )


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(13)
    edges = [
        (int(u), int(v), 1.0)
        for u in range(NUM_USERS)
        for v in rng.choice(NUM_ITEMS, size=4, replace=False)
    ]
    return BipartiteGraph.from_edges(edges)


@pytest.fixture(scope="module")
def reference(result, graph):
    """Offline truth at N_CAP; any smaller n is a prefix of these rows."""
    items = result.top_items_batch(N_CAP, exclude=graph)
    scores = np.take_along_axis(result.u @ result.v.T, items, axis=1)
    return items, scores


@pytest.fixture(scope="module")
def score_fn(result, graph):
    """What the service binds in production: a masked engine read-out,
    tagged with the model version that scored it."""
    engine = TopKEngine.from_result(result)

    def score(users, n):
        item_blocks, score_blocks = [], []
        for _, items, scores in engine.iter_top_items(
            n, users=users, exclude=graph, with_scores=True
        ):
            item_blocks.append(items)
            score_blocks.append(scores)
        return np.concatenate(item_blocks), np.concatenate(score_blocks), "toy@v1"

    return score


class TestEquivalence:
    @settings(deadline=None, max_examples=25)
    @given(
        requests=st.lists(
            st.tuples(
                st.integers(0, NUM_USERS - 1), st.integers(1, N_CAP)
            ),
            min_size=1,
            max_size=32,
        ),
        max_batch=st.integers(1, 16),
    )
    def test_any_interleaving_matches_top_items_batch(
        self, score_fn, reference, requests, max_batch
    ):
        """Arbitrary request streams and batch sizes all reproduce
        ``top_items_batch`` exactly — mixed ``n`` included."""
        expected_items, _ = reference
        with MicroBatcher(score_fn, max_batch=max_batch) as batcher:
            futures = [batcher.submit(u, n) for u, n in requests]
            for (u, n), future in zip(requests, futures):
                items, scores, model = future.result(timeout=30)
                assert model == "toy@v1"
                np.testing.assert_array_equal(items, expected_items[u][:n])
                assert scores is None

    def test_concurrent_submitters_match_reference(self, score_fn, reference):
        """4 client threads hammering one batcher — still element-identical."""
        expected_items, _ = reference
        mismatches = []
        with MicroBatcher(score_fn, max_batch=8) as batcher:

            def client(seed: int) -> None:
                rng = np.random.default_rng(seed)
                for _ in range(20):
                    user = int(rng.integers(NUM_USERS))
                    n = int(rng.integers(1, N_CAP + 1))
                    items, _, _ = batcher.submit(user, n).result(timeout=30)
                    if not np.array_equal(items, expected_items[user][:n]):
                        mismatches.append((user, n))

            threads = [
                threading.Thread(target=client, args=(seed,))
                for seed in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert mismatches == []

    def test_with_scores_slices_matching_prefix(self, score_fn, reference):
        expected_items, expected_scores = reference
        with MicroBatcher(score_fn, max_batch=4) as batcher:
            futures = [
                batcher.submit(user, n, with_scores=True)
                for user, n in [(0, 3), (1, N_CAP), (0, 1), (5, 7)]
            ]
            for (user, n), future in zip(
                [(0, 3), (1, N_CAP), (0, 1), (5, 7)], futures
            ):
                items, scores, model = future.result(timeout=30)
                assert model == "toy@v1"
                np.testing.assert_array_equal(items, expected_items[user][:n])
                np.testing.assert_allclose(
                    scores, expected_scores[user][:n], rtol=1e-12
                )

    def test_coalescing_actually_happens(self, score_fn):
        """Requests queued while a batch is scored drain as one batch, not
        one GEMM per request."""
        started, gate = threading.Event(), threading.Event()

        def held(users, n):
            started.set()
            gate.wait(10)
            return score_fn(users, n)

        with MicroBatcher(held, max_batch=16) as batcher:
            first = batcher.submit(0, 3)
            assert started.wait(10)  # the worker is busy scoring user 0
            queued = [batcher.submit(u % NUM_USERS, 3) for u in range(1, 12)]
            gate.set()
            for future in (first, *queued):
                future.result(timeout=30)
            stats = batcher.stats.snapshot()
        assert stats["requests"] == 12
        assert stats["batches"] == 2
        assert stats["max_batch_observed"] == 11
        assert stats["mean_batch"] == 6.0

    def test_lone_request_is_scored_without_waiting(self, score_fn):
        """No straggler window: an idle worker scores a lone request at once
        instead of waiting for company."""
        reached = []

        def timed(users, n):
            reached.append(time.perf_counter())
            return score_fn(users, n)

        delays = []
        with MicroBatcher(timed) as batcher:
            for user in range(20):
                submitted = time.perf_counter()
                batcher.submit(user, 3).result(timeout=30)
                delays.append(reached[-1] - submitted)
        assert min(delays) < 1e-3


class TestQueueWait:
    def test_stats_accumulate_queue_waits(self):
        stats = BatchStats()
        assert stats.snapshot()["queue_wait_ms_mean"] == 0.0
        assert stats.snapshot()["queue_wait_ms_max"] == 0.0
        stats.record([0.001, 0.003])
        stats.record([0.002])
        snapshot = stats.snapshot()
        assert snapshot["batches"] == 2
        assert snapshot["requests"] == 3
        assert snapshot["queue_wait_ms_mean"] == pytest.approx(2.0)
        assert snapshot["queue_wait_ms_max"] == pytest.approx(3.0)

    def test_queue_wait_spans_submit_to_batch_start(self, score_fn):
        """Requests queued behind a batch held for >= 50 ms wait at least
        that long; no wait exceeds the wall time of the whole run."""
        started, gate = threading.Event(), threading.Event()

        def held(users, n):
            started.set()
            gate.wait(10)
            return score_fn(users, n)

        begin = time.perf_counter()
        with MicroBatcher(held, max_batch=8) as batcher:
            first = batcher.submit(0, 3)
            assert started.wait(10)
            queued = [batcher.submit(u, 3) for u in (1, 2)]
            time.sleep(0.05)
            gate.set()
            for future in (first, *queued):
                future.result(timeout=30)
            snapshot = batcher.stats.snapshot()
        elapsed_ms = 1e3 * (time.perf_counter() - begin)
        assert snapshot["queue_wait_ms_max"] >= 50.0
        assert 0.0 <= snapshot["queue_wait_ms_mean"] <= snapshot["queue_wait_ms_max"]
        assert snapshot["queue_wait_ms_max"] <= elapsed_ms


class TestLifecycle:
    def test_queue_full_sheds_instead_of_blocking(self, score_fn):
        started, gate = threading.Event(), threading.Event()

        def blocked(users, n):
            started.set()
            gate.wait(10)
            return score_fn(users, n)

        batcher = MicroBatcher(blocked, max_batch=1, max_queue=2)
        try:
            first = batcher.submit(0, 3)
            assert started.wait(10)  # worker is busy; queue is free again
            queued = [batcher.submit(u, 3) for u in (1, 2)]
            with pytest.raises(QueueFull, match="at capacity"):
                batcher.submit(3, 3)
            gate.set()
            for future in (first, *queued):
                future.result(timeout=30)
        finally:
            gate.set()
            batcher.close()

    def test_close_drains_then_rejects(self, score_fn, reference):
        expected_items, _ = reference
        batcher = MicroBatcher(score_fn, max_batch=4)
        futures = [batcher.submit(u, 4) for u in range(6)]
        batcher.close()
        for user, future in enumerate(futures):
            items, _, _ = future.result(timeout=30)
            np.testing.assert_array_equal(items, expected_items[user][:4])
        # The typed subclass the HTTP tier maps to a clean 503 — a request
        # racing stop() is an availability event, not a 500.
        with pytest.raises(BatcherClosed, match="closed"):
            batcher.submit(0, 3)
        assert issubclass(BatcherClosed, RuntimeError)
        batcher.close()  # idempotent

    def test_scoring_error_reaches_every_caller(self, score_fn):
        started, gate = threading.Event(), threading.Event()
        calls = []

        def flaky(users, n):
            calls.append(users.size)
            started.set()
            gate.wait(10)
            if len(calls) == 2:
                raise ValueError("model exploded")
            return score_fn(users, n)

        with MicroBatcher(flaky, max_batch=8) as batcher:
            first = batcher.submit(0, 3)
            assert started.wait(10)  # the worker is busy scoring user 0
            doomed = [batcher.submit(u, 3) for u in range(1, 4)]
            gate.set()
            first.result(timeout=30)
            for future in doomed:
                with pytest.raises(ValueError, match="model exploded"):
                    future.result(timeout=30)
            # The worker survives a scoring failure and keeps serving.
            items, _, _ = batcher.submit(0, 3).result(timeout=30)
            assert items.shape == (3,)
        assert calls == [1, 3, 1]

    def test_short_score_rows_reach_every_caller(self, score_fn):
        """A scoring call that answers fewer rows than users fails its whole
        batch — no caller gets another's row — and the worker keeps
        serving."""
        started, gate = threading.Event(), threading.Event()
        calls = []

        def short(users, n):
            calls.append(users.size)
            started.set()
            gate.wait(10)
            items, scores, model = score_fn(users, n)
            if len(calls) == 2:
                return items[:1], scores[:1], model
            return items, scores, model

        with MicroBatcher(short, max_batch=8) as batcher:
            first = batcher.submit(0, 3)
            assert started.wait(10)  # the worker is busy scoring user 0
            doomed = [batcher.submit(u, 3) for u in (1, 2, 3)]
            gate.set()
            first.result(timeout=30)
            for future in doomed:
                with pytest.raises(ValueError, match="1 rows for 3 users"):
                    future.result(timeout=30)
            items, _, _ = batcher.submit(4, 3).result(timeout=30)
            assert items.shape == (3,)

    def test_cancelled_request_is_not_scored(self, score_fn):
        """A caller that gave up before its batch started is dropped: the
        scoring call sees only live users and the stats count only them."""
        started, gate = threading.Event(), threading.Event()
        seen = []

        def recording(users, n):
            seen.append(users.tolist())
            started.set()
            gate.wait(10)
            return score_fn(users, n)

        with MicroBatcher(recording, max_batch=8) as batcher:
            first = batcher.submit(0, 3)
            assert started.wait(10)  # worker is busy scoring user 0
            live_a, doomed, live_b = (batcher.submit(u, 3) for u in (1, 2, 3))
            assert doomed.cancel()
            gate.set()
            for future in (first, live_a, live_b):
                future.result(timeout=30)
            stats = batcher.stats.snapshot()
        assert doomed.cancelled()
        assert seen == [[0], [1, 3]]
        assert stats["requests"] == 3
        assert stats["batches"] == 2

    def test_all_cancelled_batch_skips_scoring(self, score_fn):
        started, gate = threading.Event(), threading.Event()
        seen = []

        def recording(users, n):
            seen.append(users.tolist())
            started.set()
            gate.wait(10)
            return score_fn(users, n)

        with MicroBatcher(recording, max_batch=8) as batcher:
            first = batcher.submit(0, 3)
            assert started.wait(10)
            doomed = [batcher.submit(u, 3) for u in (1, 2)]
            assert all(future.cancel() for future in doomed)
            gate.set()
            first.result(timeout=30)
            # The worker keeps serving after dropping a fully cancelled batch.
            items, _, _ = batcher.submit(4, 3).result(timeout=30)
            assert items.shape == (3,)
            stats = batcher.stats.snapshot()
        assert seen == [[0], [4]]
        assert stats["requests"] == 2
        assert stats["batches"] == 2

    def test_invalid_parameters_rejected(self, score_fn):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(score_fn, max_batch=0)
        with pytest.raises(ValueError, match="max_queue"):
            MicroBatcher(score_fn, max_queue=0)
        with MicroBatcher(score_fn) as batcher:
            with pytest.raises(ValueError, match="n must be"):
                batcher.submit(0, -1)
