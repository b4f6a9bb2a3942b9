"""Tests for the batched top-k retrieval engine and the selection primitive.

The load-bearing guarantee is *differential*: ``TopKEngine.top_items`` must
be element-for-element identical to the per-user
:meth:`~repro.core.base.EmbeddingResult.top_items` path for every block size
and thread count.  Determinism holds by construction — both paths select
with :func:`~repro.core.selection.select_topn` — and is pinned here against
random embeddings (well-separated scores) and integer-valued embeddings
(every dot product exactly representable, so even the GEMV-vs-GEMM
summation-order difference cannot reorder ties).
"""

import numpy as np
import pytest

from repro import obs
from repro.core.base import EmbeddingResult
from repro.core.selection import select_topn
from repro.graph import BipartiteGraph
from repro.linalg import DtypePolicy
from repro.metrics import RankingScores
from repro.tasks import (
    DEFAULT_BLOCK_ROWS,
    TopKEngine,
    evaluate_recommendation,
    ground_truth_lists,
    split_edges,
)


@pytest.fixture(scope="module")
def random_result(rating_graph_module):
    rng = np.random.default_rng(7)
    graph = rating_graph_module
    return EmbeddingResult(
        u=rng.standard_normal((graph.num_u, 8)),
        v=rng.standard_normal((graph.num_v, 8)),
        method="random",
    )


@pytest.fixture(scope="module")
def rating_graph_module():
    from repro.datasets import RatingModel, latent_factor_ratings

    return latent_factor_ratings(
        RatingModel(
            num_users=120,
            num_items=60,
            edges_per_user=12,
            num_factors=8,
            num_communities=4,
            noise=0.2,
        ),
        seed=3,
    )


def per_user_reference(result, n, graph=None):
    exclude = (lambda u: graph.u_neighbors(u)) if graph is not None else (
        lambda u: None
    )
    return np.stack(
        [
            result.top_items(user, n, exclude=exclude(user))
            for user in range(result.u.shape[0])
        ]
    )


# ---------------------------------------------------------------------------
# select_topn
# ---------------------------------------------------------------------------
#: The score blocks the benchmark's read paths hand to select_topn: one user
#: over 200 000 items, similarity sources over 500 nodes, a full engine
#: block over 7 500 items, and an engine block over a 40-item catalogue.
SERVING_SHAPES = [(1, 200_000), (16, 500), (256, 7_500), (256, 40)]


def lexsort_reference(block, n):
    """(score desc, index asc) per row, NaN last in index order."""
    rows, m = block.shape
    order = np.lexsort((np.broadcast_to(np.arange(m), block.shape), -block))
    return order[:, : min(n, m)]


def serving_block(kind, rows, m, n, seed):
    """A score block of one kind; ``nan`` rows keep at least ``n`` real
    scores unless ``n == m`` (the parent's defined cases)."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.standard_normal((rows, m))
    # Six integer levels: every boundary is a wide tie group.
    block = rng.integers(0, 6, size=(rows, m)).astype(float)
    if kind in ("masked", "nan"):
        # Mask shares from none to all of a row, so some rows keep fewer
        # real scores than n and fill from the -inf tie group.
        share = np.linspace(0.0, 1.0, rows)[:, None] if rows > 1 else 0.5
        block[rng.uniform(size=(rows, m)) < share] = -np.inf
    if kind == "nan":
        most = m if n >= m else m - n
        for row in range(0, rows, 2):
            count = int(rng.integers(1, most + 1)) if most else 0
            block[row, rng.choice(m, size=count, replace=False)] = np.nan
    return block


class TestSelectTopn:
    def test_matches_lexsort_reference(self):
        # (score desc, index asc) is exactly lexsort((arange, -scores)).
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 40))
            n = int(rng.integers(0, 45))
            scores = rng.integers(0, 6, size=m).astype(float)
            want = np.lexsort((np.arange(m), -scores))[: min(n, m)]
            np.testing.assert_array_equal(select_topn(scores, n), want)

    @pytest.mark.parametrize("kind", ["normal", "ties", "masked", "nan"])
    @pytest.mark.parametrize("rows,m", SERVING_SHAPES)
    def test_matches_lexsort_reference_at_serving_sizes(self, rows, m, kind):
        """The benchmark's block shapes, tie-heavy and -inf-masked, and rows
        holding NaN: NaN is never selected while n real scores remain."""
        for n in (1, 10, m - 1, m):
            block = serving_block(kind, rows, m, n, seed=rows + m + n)
            picked = select_topn(block, n)
            np.testing.assert_array_equal(picked, lexsort_reference(block, n))
            if kind == "nan" and n < m:
                assert not np.isnan(np.take_along_axis(block, picked, 1)).any()
            if rows == 1:
                np.testing.assert_array_equal(select_topn(block[0], n), picked[0])

    def test_2d_rows_independent(self):
        rng = np.random.default_rng(1)
        block = rng.standard_normal((9, 30))
        picked = select_topn(block, 5)
        assert picked.shape == (9, 5)
        for i in range(9):
            np.testing.assert_array_equal(picked[i], select_topn(block[i], 5))

    def test_ties_break_to_smallest_index(self):
        scores = np.array([1.0, 3.0, 3.0, 3.0, 0.0])
        np.testing.assert_array_equal(select_topn(scores, 2), [1, 2])
        np.testing.assert_array_equal(select_topn(scores, 4), [1, 2, 3, 0])

    def test_n_larger_than_m_returns_all_sorted(self):
        scores = np.array([0.5, 2.0, 1.0])
        np.testing.assert_array_equal(select_topn(scores, 10), [1, 2, 0])

    def test_n_zero_and_empty_rows(self):
        assert select_topn(np.array([1.0, 2.0]), 0).shape == (0,)
        assert select_topn(np.empty((0, 5)), 3).shape == (0, 3)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            select_topn(np.zeros((2, 2, 2)), 1)

    def test_neginf_markers_sort_last_in_index_order(self):
        scores = np.array([-np.inf, 4.0, -np.inf, 1.0])
        np.testing.assert_array_equal(select_topn(scores, 4), [1, 3, 0, 2])


# ---------------------------------------------------------------------------
# Differential: batched engine vs per-user path
# ---------------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("block_rows", [1, 7, 1000])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_identical_to_per_user(
        self, random_result, rating_graph_module, block_rows, threads
    ):
        split = split_edges(rating_graph_module, 0.6, seed=0)
        reference = per_user_reference(random_result, 10, split.train)
        engine = TopKEngine.from_result(
            random_result,
            policy=DtypePolicy.default().with_threads(threads),
            block_rows=block_rows,
        )
        batched = engine.top_items(10, exclude=split.train)
        np.testing.assert_array_equal(batched, reference)

    @pytest.mark.parametrize("block_rows", [1, 13, 999])
    def test_tie_determinism_with_integer_embeddings(self, block_rows):
        # Constant user rows against small-integer item rows produce massive
        # score ties; every dot is exactly representable, so any summation
        # order gives bit-identical scores and the index tie-break decides.
        rng = np.random.default_rng(5)
        result = EmbeddingResult(
            u=np.ones((50, 4)),
            v=rng.integers(0, 3, size=(30, 4)).astype(float),
        )
        reference = per_user_reference(result, 7)
        for threads in (1, 2, 4):
            engine = TopKEngine.from_result(
                result,
                policy=DtypePolicy.default().with_threads(threads),
                block_rows=block_rows,
            )
            np.testing.assert_array_equal(engine.top_items(7), reference)

    def test_float32_policy_agrees_on_separated_scores(self, rating_graph_module):
        # Integer-valued embeddings are exact in both dtypes, so the float32
        # serving policy must produce the same lists as float64.
        rng = np.random.default_rng(11)
        result = EmbeddingResult(
            u=rng.integers(-4, 5, size=(40, 6)).astype(float),
            v=rng.integers(-4, 5, size=(25, 6)).astype(float),
        )
        lists64 = TopKEngine.from_result(
            result, policy=DtypePolicy.default()
        ).top_items(8)
        lists32 = TopKEngine.from_result(
            result, policy=DtypePolicy.float32()
        ).top_items(8)
        np.testing.assert_array_equal(lists32, lists64)

    def test_with_scores_matches_score_method(self, random_result):
        engine = TopKEngine.from_result(random_result, block_rows=16)
        users = np.array([3, 9, 40])
        for block_users, items, scores in engine.iter_top_items(
            5, users=users, with_scores=True
        ):
            for user, row, row_scores in zip(block_users, items, scores):
                expected = [
                    random_result.score(int(user), int(item)) for item in row
                ]
                np.testing.assert_allclose(row_scores, expected)


# ---------------------------------------------------------------------------
# Engine edge cases
# ---------------------------------------------------------------------------
class TestEngineEdges:
    def test_n_larger_than_item_count(self, random_result):
        engine = TopKEngine.from_result(random_result)
        out = engine.top_items(10_000)
        assert out.shape == (engine.num_users, engine.num_items)
        # Every row is a permutation of the full candidate set.
        np.testing.assert_array_equal(
            np.sort(out, axis=1),
            np.tile(np.arange(engine.num_items), (engine.num_users, 1)),
        )

    def test_all_items_excluded(self):
        rng = np.random.default_rng(3)
        result = EmbeddingResult(
            u=rng.standard_normal((12, 4)), v=rng.standard_normal((9, 4))
        )
        full = BipartiteGraph.from_dense(np.ones((12, 9)))
        out = TopKEngine.from_result(result, block_rows=5).top_items(
            4, exclude=full
        )
        # Everything is -inf: ties resolve to ascending index order, the
        # historical per-user behavior.
        np.testing.assert_array_equal(out, np.tile(np.arange(4), (12, 1)))

    def test_users_subset_and_empty(self, random_result):
        engine = TopKEngine.from_result(random_result)
        subset = engine.top_items(6, users=np.array([5, 2, 5]))
        assert subset.shape == (3, 6)
        np.testing.assert_array_equal(subset[0], subset[2])
        empty = engine.top_items(6, users=np.array([], dtype=np.int64))
        assert empty.shape == (0, 6)

    def test_rejects_out_of_range_users(self, random_result):
        engine = TopKEngine.from_result(random_result)
        with pytest.raises(ValueError, match="user indices"):
            engine.top_items(3, users=np.array([0, engine.num_users]))

    def test_rejects_oversized_exclusion_items(self, random_result):
        engine = TopKEngine.from_result(random_result)
        too_wide = BipartiteGraph.from_dense(
            np.ones((engine.num_users, engine.num_items + 1))
        )
        with pytest.raises(ValueError, match="exclusion graph"):
            engine.top_items(3, exclude=too_wide)

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            TopKEngine(np.zeros((4, 3)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="block_rows"):
            TopKEngine(np.zeros((4, 3)), np.zeros((5, 3)), block_rows=0)

    def test_default_block_rows(self, random_result):
        assert TopKEngine.from_result(random_result).block_rows == (
            DEFAULT_BLOCK_ROWS
        )


# ---------------------------------------------------------------------------
# Observability contract
# ---------------------------------------------------------------------------
class TestObsContract:
    def test_counters_and_watermark(self, random_result):
        engine_users = random_result.u.shape[0]
        num_items = random_result.v.shape[0]
        block = 32
        with obs.collect() as collector:
            engine = TopKEngine.from_result(random_result, block_rows=block)
            engine.top_items(5)
        blocks = -(-engine_users // block)  # ceil division
        assert collector.ops.gemms == blocks
        assert collector.ops.topk_candidates == engine_users * num_items
        # One block_rows x num_items compute-dtype buffer.
        assert collector.memory.workspace_bytes == block * num_items * 8

    def test_null_collector_path_unaffected(self, random_result):
        # No collector active: the engine still produces correct output.
        engine = TopKEngine.from_result(random_result, block_rows=16)
        assert engine.top_items(5).shape == (random_result.u.shape[0], 5)


# ---------------------------------------------------------------------------
# Batched evaluation path
# ---------------------------------------------------------------------------
class TestBatchedEvaluation:
    def test_ground_truth_matches_reference(self, rating_graph_module):
        split = split_edges(rating_graph_module, 0.6, seed=0)
        reference = {}
        for u, v, w in zip(split.test_u, split.test_v, split.test_w):
            reference.setdefault(int(u), []).append((float(w), int(v)))
        reference = {
            u: [v for _, v in sorted(pairs, key=lambda p: (-p[0], p[1]))]
            for u, pairs in reference.items()
        }
        assert ground_truth_lists(split) == reference

    def test_ground_truth_empty_split(self, rating_graph_module):
        split = split_edges(rating_graph_module, 0.6, seed=0)
        empty = type(split)(
            train=split.train,
            test_u=np.empty(0, dtype=split.test_u.dtype),
            test_v=np.empty(0, dtype=split.test_v.dtype),
            test_w=np.empty(0, dtype=split.test_w.dtype),
        )
        assert ground_truth_lists(empty) == {}

    @pytest.mark.parametrize("block_rows", [1, 7, None])
    def test_batched_equals_legacy(
        self, random_result, rating_graph_module, block_rows
    ):
        split = split_edges(rating_graph_module, 0.6, seed=0)
        batched = evaluate_recommendation(
            random_result, split, n=10, batched=True, block_rows=block_rows
        )
        legacy = evaluate_recommendation(
            random_result, split, n=10, batched=False
        )
        for metric in ("f1", "ndcg", "mrr", "precision", "recall", "num_users"):
            assert getattr(batched, metric) == getattr(legacy, metric)

    def test_timing_split_populated(self, random_result, rating_graph_module):
        split = split_edges(rating_graph_module, 0.6, seed=0)
        report = evaluate_recommendation(random_result, split, n=10)
        assert report.scoring_seconds > 0
        assert report.metrics_seconds > 0
        assert "score" in report.row()

    def test_update_batch_equals_streaming_updates(self):
        truths = [[1, 2], [], [3]]
        recommendations = [[1, 5], [2, 3], [3, 1]]
        one = RankingScores()
        one.update_batch(recommendations, truths)
        two = RankingScores()
        for rec, truth in zip(recommendations, truths):
            two.update(rec, truth)
        assert one.summary() == two.summary()
        assert one.num_users == two.num_users == 2
