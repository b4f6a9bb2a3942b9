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

from unittest import mock

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
from repro.tasks import topk as topk_module
from repro.tasks.topk import SCORE_BUFFER_BYTES


def blocked_engine(u, v, block_rows, **kwargs):
    """A :class:`TopKEngine` answering ``block_rows`` users per block."""
    with mock.patch.object(topk_module, "DEFAULT_BLOCK_ROWS", block_rows):
        return TopKEngine(u, v, **kwargs)


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

    @pytest.mark.parametrize("kind", ["normal", "ties", "masked", "nan"])
    def test_both_sides_of_the_sort_width(self, kind):
        from repro.core.selection import SORT_WIDTH

        for m in (SORT_WIDTH - 1, SORT_WIDTH, SORT_WIDTH + 1):
            for n in (1, 10, m - 1, m):
                block = serving_block(kind, 16, m, n, seed=m + n)
                np.testing.assert_array_equal(
                    select_topn(block, n), lexsort_reference(block, n)
                )

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
        engine = blocked_engine(
            random_result.u,
            random_result.v,
            block_rows,
            policy=DtypePolicy.default().with_threads(threads),
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
            engine = blocked_engine(
                result.u,
                result.v,
                block_rows,
                policy=DtypePolicy.default().with_threads(threads),
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
        engine = blocked_engine(random_result.u, random_result.v, 16)
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
        out = blocked_engine(result.u, result.v, 5).top_items(4, exclude=full)
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

    def test_default_block_rows(self, random_result):
        assert TopKEngine.from_result(random_result).block_rows == (
            DEFAULT_BLOCK_ROWS
        )

    @pytest.mark.parametrize(
        "num_items,rows",
        [(0, 256), (500, 256), (65_536, 256), (100_000, 167), (200_000, 83)],
    )
    def test_block_rows_derived_from_catalog_width(self, num_items, rows):
        # The float32 score buffer stays within SCORE_BUFFER_BYTES.
        engine = TopKEngine(np.ones((1, 1)), np.zeros((num_items, 1)))
        assert engine.block_rows == rows
        assert rows * max(num_items, 1) * 4 <= SCORE_BUFFER_BYTES

    def test_derived_block_lists_equal_explicit_block(self):
        rng = np.random.default_rng(41)
        u = rng.standard_normal((250, 4))
        v = rng.standard_normal((70_000, 4))
        derived = TopKEngine(u, v)
        assert derived.block_rows == 239
        # A buffer cap that admits all 256 rows of the default block.
        with mock.patch.object(topk_module, "SCORE_BUFFER_BYTES", 256 * 70_000 * 4):
            explicit = TopKEngine(u, v)
        assert explicit.block_rows == 256
        np.testing.assert_array_equal(derived.top_items(5), explicit.top_items(5))


# ---------------------------------------------------------------------------
# Observability contract
# ---------------------------------------------------------------------------
class TestObsContract:
    def test_counters_and_watermark(self, random_result):
        engine_users = random_result.u.shape[0]
        num_items = random_result.v.shape[0]
        block = 32
        with obs.collect() as collector:
            engine = blocked_engine(random_result.u, random_result.v, block)
            engine.top_items(5)
        blocks = -(-engine_users // block)  # ceil division
        # Two GEMMs per block: the float32 sweep and the float64 rerank.
        assert collector.ops.gemms == 2 * blocks
        assert collector.ops.topk_candidates == engine_users * num_items
        # One block_rows x num_items float32 sweep buffer.
        assert collector.memory.workspace_bytes == block * num_items * 4

    def test_null_collector_path_unaffected(self, random_result):
        # No collector active: the engine still produces correct output.
        engine = blocked_engine(random_result.u, random_result.v, 16)
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
        self, random_result, rating_graph_module, block_rows, monkeypatch
    ):
        # Metrics accumulated a block at a time equal metrics accumulated one
        # user at a time from per_user_reference lists, whatever block size
        # the engine derives (None: the shipped default).
        if block_rows is not None:
            monkeypatch.setattr(topk_module, "DEFAULT_BLOCK_ROWS", block_rows)
            assert TopKEngine.from_result(random_result).block_rows == block_rows
        split = split_edges(rating_graph_module, 0.6, seed=0)
        report = evaluate_recommendation(random_result, split, n=10)
        lists = per_user_reference(random_result, 10, split.train)
        reference = RankingScores()
        for user, truth in ground_truth_lists(split).items():
            reference.update(lists[user].tolist(), truth)
        summary = reference.summary()
        for metric in ("f1", "ndcg", "mrr", "precision", "recall"):
            assert getattr(report, metric) == summary[metric]
        assert report.num_users == reference.num_users

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


# ---------------------------------------------------------------------------
# One engine: float32 sweep, margin, fixed-order float64 rerank
# ---------------------------------------------------------------------------
def numpy_reference(u, v, n, exclude=None):
    """Independent lists: BLAS float64 ``u @ v.T``, masked, lexsorted."""
    scores = u @ v.T
    if exclude is not None:
        w = exclude.w
        rows = np.repeat(np.arange(exclude.num_u), np.diff(w.indptr))
        scores[rows, w.indices] = -np.inf
    return lexsort_reference(scores, n)


def fixed_order_scores(u, v, items, exclude=None):
    """Fixed-order float64 dots of the listed pairs (masked pairs -inf)."""
    truth = np.einsum("uk,ik->ui", u, v)
    if exclude is not None:
        truth[exclude.w.toarray() != 0] = -np.inf
    return np.take_along_axis(truth, items, axis=1)


def gaussian_with_duplicate_items(seed=17):
    """Gaussian embeddings whose items 30..39 repeat items 0..9: exact ties."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((33, 6))
    v = rng.standard_normal((40, 6))
    v[30:] = v[:10]
    return u, v


def integer_all_ties(seed=5):
    """Constant user rows against small-integer items: massive exact ties."""
    rng = np.random.default_rng(seed)
    return np.ones((33, 4)), rng.integers(0, 3, size=(40, 4)).astype(float)


def exclusion_graph(num_u, num_v, seed=23):
    """~20% of pairs masked; user 0 keeps only 3 items, user 1 keeps none,
    so their rows hold fewer unmasked items than most n."""
    rng = np.random.default_rng(seed)
    dense = (rng.uniform(size=(num_u, num_v)) < 0.2).astype(float)
    dense[0] = 1.0
    dense[0, [4, 17, 31]] = 0.0
    dense[1] = 1.0
    return BipartiteGraph.from_dense(dense)


class TestOneEngine:
    @pytest.mark.parametrize("fixture", [gaussian_with_duplicate_items, integer_all_ties])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("block_rows", [1, 7, 256])
    def test_lists_and_scores_against_independent_references(
        self, fixture, masked, block_rows
    ):
        u, v = fixture()
        exclude = exclusion_graph(u.shape[0], v.shape[0]) if masked else None
        engine = blocked_engine(u, v, block_rows)
        for n in (0, 1, 10, v.shape[0], v.shape[0] + 5):
            blocks = list(engine.iter_top_items(n, exclude=exclude, with_scores=True))
            if n == 0:
                assert blocks == []
                assert engine.top_items(n, exclude=exclude).shape == (u.shape[0], 0)
                continue
            items = np.concatenate([block[1] for block in blocks])
            scores = np.concatenate([block[2] for block in blocks])
            np.testing.assert_array_equal(items, numpy_reference(u, v, n, exclude))
            np.testing.assert_array_equal(
                scores, fixed_order_scores(u, v, items, exclude)
            )

    def test_duplicate_items_tie_exactly(self):
        u, v = gaussian_with_duplicate_items()
        _, items, scores = next(
            TopKEngine(u, v).iter_top_items(v.shape[0], with_scores=True)
        )
        by_item = np.empty_like(scores)
        np.put_along_axis(by_item, items, scores, axis=1)
        np.testing.assert_array_equal(by_item[:, 30:], by_item[:, :10])

    def test_policy_dtype_does_not_change_top_k(self):
        u, v = gaussian_with_duplicate_items(seed=3)
        lists = [
            TopKEngine(u, v, policy=policy).top_items(10)
            for policy in (DtypePolicy.default(), DtypePolicy.float32())
        ]
        np.testing.assert_array_equal(lists[0], lists[1])

    def test_margin_reranks_a_strict_subset(self):
        u, v = gaussian_with_duplicate_items(seed=9)
        engine = blocked_engine(u, v, 1)
        engine.top_items(3)
        # At least the 3 winners per user, far from the full cross product.
        assert 3 * u.shape[0] <= engine.reranked_candidates < u.shape[0] * v.shape[0] // 2

    def test_a_block_reranks_each_rows_own_candidates(self):
        u, v = gaussian_with_duplicate_items(seed=9)
        exclude = exclusion_graph(u.shape[0], v.shape[0])
        for graph in (None, exclude):
            narrow = blocked_engine(u, v, 1)
            wide = blocked_engine(u, v, 256)
            np.testing.assert_array_equal(
                wide.top_items(3, exclude=graph), narrow.top_items(3, exclude=graph)
            )
            # Not the union of the block's candidate sets: within one item
            # per row (a last-bit difference of the float32 GEMM at another
            # shape) of what the rows cost one at a time.
            assert narrow.reranked_candidates <= wide.reranked_candidates + u.shape[0]
            assert wide.reranked_candidates <= narrow.reranked_candidates + u.shape[0]

    def test_csr_pairs_is_the_per_row_gather(self):
        from repro.tasks.topk import csr_pairs

        graph = exclusion_graph(33, 40)
        indptr, indices = graph.w.indptr, graph.w.indices
        keys = np.array([5, 1, 5, 0, 32, 7])
        rows, cols = csr_pairs(indptr, indices, keys)
        want = [indices[indptr[key] : indptr[key + 1]] for key in keys]
        np.testing.assert_array_equal(rows, np.repeat(np.arange(keys.size), [w.size for w in want]))
        np.testing.assert_array_equal(cols, np.concatenate(want))
        empty = csr_pairs(indptr, indices, np.array([], dtype=np.int64))
        assert empty[0].size == empty[1].size == 0


class TestSweepOverflow:
    """A sweep that can overflow float32 falls back to a full rerank."""

    @staticmethod
    def _engine(u, v, codec):
        from repro.core.quantize import quantize_columns

        if codec == "float":
            return blocked_engine(u, v, 7), u, v
        (u_codes, u_scales), (v_codes, v_scales) = (
            quantize_columns(u, codec), quantize_columns(v, codec)
        )
        engine = blocked_engine(u_codes, v_codes, 7, scales=(u_scales, v_scales))
        # The values the quantized engine is exact against, decoded here.
        return (
            engine,
            u_codes.astype(np.float64) * u_scales,
            v_codes.astype(np.float64) * v_scales,
        )

    @pytest.mark.parametrize("codec", ["float", "float16", "int8"])
    @pytest.mark.parametrize(
        "u_scale,v_scale", [(1e40, 1.0), (1.0, 1e40), (1e20, 1e20), (1e-45, 1.0)]
    )
    def test_lists_equal_float64_reference(self, codec, u_scale, v_scale):
        rng = np.random.default_rng(29)
        u = rng.standard_normal((20, 4)) * u_scale
        v = rng.standard_normal((50, 4)) * v_scale
        engine, u_exact, v_exact = self._engine(u, v, codec)
        exclude = exclusion_graph(20, 50, seed=31)
        for graph in (None, exclude):
            np.testing.assert_array_equal(
                engine.top_items(5, exclude=graph),
                numpy_reference(u_exact, v_exact, 5, graph),
            )


    @pytest.mark.parametrize("codec", ["float", "float16", "int8"])
    def test_float32_max_column_with_zero_user_coordinates(self, codec):
        # A column whose maximum is FLT_MAX: half its float32 ulp is inf, so
        # a staging error taken from it turns 0 * inf into a nan bound for a
        # row that gives the column no weight, and that row's candidates
        # vanish.  Rows 0, 3 and 6 (the first block) weigh the column a
        # little, the later blocks not at all, and row 10 is all zero (an
        # edgeless user: every score ties at 0).
        rng = np.random.default_rng(37)
        u = rng.standard_normal((20, 4))
        v = rng.standard_normal((50, 4))
        v[::2, 0] = np.finfo(np.float32).max
        u[:, 0] = 0.0
        u[:7:3, 0] = 1e-30
        u[10] = 0.0
        engine, u_exact, v_exact = self._engine(u, v, codec)
        exclude = exclusion_graph(20, 50, seed=41)
        for graph in (None, exclude):
            np.testing.assert_array_equal(
                engine.top_items(5, exclude=graph),
                numpy_reference(u_exact, v_exact, 5, graph),
            )
            # The sweep still runs: two GEMMs per block of 7 rows.
            with obs.collect() as collector:
                engine.top_items(5, exclude=graph)
            assert collector.ops.gemms == 2 * 3


class TestStagingMemory:
    def test_construction_peaks_at_the_staging_plus_one_row_block(self):
        import tracemalloc

        from repro.tasks.topk import STAGE_ROWS

        rng = np.random.default_rng(2)
        u = rng.standard_normal((100, 16))
        v = rng.standard_normal((20_000, 16))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            engine = TopKEngine(u, v)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        staged = 16 * 20_000 * 4
        assert engine.resident_bytes() == u.nbytes + v.nbytes + staged
        assert staged <= peak <= staged + STAGE_ROWS * 16 * 8
