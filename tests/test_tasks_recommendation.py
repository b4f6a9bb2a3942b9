"""Unit tests for the top-N recommendation task."""

import numpy as np
import pytest

from repro.core.base import BipartiteEmbedder, EmbeddingResult
from repro.tasks import (
    RecommendationTask,
    TopKEngine,
    evaluate_recommendation,
    ground_truth_lists,
    split_edges,
)


def _engine_list(result, train, user, n):
    """One user's list as ``evaluate_recommendation`` reads it: the engine
    over ``result`` with ``train``'s edges masked."""
    items = TopKEngine.from_result(result).top_items(
        n, users=np.array([user]), exclude=train
    )
    return items[0].tolist()


class _OracleEmbedder(BipartiteEmbedder):
    """Cheating embedder whose scores equal the *full* graph's weights."""

    name = "oracle"

    def __init__(self, full_graph):
        super().__init__(dimension=min(full_graph.num_u, full_graph.num_v))
        self._full = full_graph

    def _embed(self, graph):
        dense = self._full.to_dense()
        u_svd, s, vt = np.linalg.svd(dense, full_matrices=False)
        k = self.dimension
        return u_svd[:, :k] * s[:k], vt[:k].T, {}


class TestGroundTruth:
    def test_ranked_by_weight(self, rating_graph):
        split = split_edges(rating_graph, 0.6, seed=0)
        truths = ground_truth_lists(split)
        for user, items in list(truths.items())[:10]:
            weights = [
                split.test_w[
                    np.flatnonzero(
                        (split.test_u == user) & (split.test_v == item)
                    )[0]
                ]
                for item in items
            ]
            assert weights == sorted(weights, reverse=True)

    def test_only_test_users_present(self, rating_graph):
        split = split_edges(rating_graph, 0.6, seed=0)
        truths = ground_truth_lists(split)
        assert set(truths) == set(split.test_u.tolist())


class TestRecommendTopN:
    def test_excludes_training_items(self, rating_graph):
        split = split_edges(rating_graph, 0.6, seed=0)
        result = EmbeddingResult(
            u=np.ones((rating_graph.num_u, 2)),
            v=np.ones((rating_graph.num_v, 2)),
        )
        user = int(split.train.edge_array()[0][0])
        recommended = _engine_list(result, split.train, user, 10)
        seen = set(split.train.u_neighbors(user).tolist())
        assert not seen & set(recommended)

    def test_returns_n_items(self, rating_graph):
        split = split_edges(rating_graph, 0.6, seed=0)
        result = EmbeddingResult(
            u=np.random.default_rng(0).random((rating_graph.num_u, 3)),
            v=np.random.default_rng(1).random((rating_graph.num_v, 3)),
        )
        recommended = _engine_list(result, split.train, 0, 7)
        assert len(recommended) == 7
        assert len(set(recommended)) == 7

    def test_ordered_by_score(self, rating_graph):
        split = split_edges(rating_graph, 0.6, seed=0)
        rng = np.random.default_rng(2)
        result = EmbeddingResult(
            u=rng.random((rating_graph.num_u, 3)),
            v=rng.random((rating_graph.num_v, 3)),
        )
        recommended = _engine_list(result, split.train, 0, 5)
        scores = [result.score(0, item) for item in recommended]
        assert scores == sorted(scores, reverse=True)


class TestEvaluate:
    def test_oracle_beats_random(self, rating_graph):
        split = split_edges(rating_graph, 0.6, seed=0)
        oracle = _OracleEmbedder(rating_graph).fit(split.train)
        oracle_report = evaluate_recommendation(oracle, split, n=10)

        rng = np.random.default_rng(0)
        random_result = EmbeddingResult(
            u=rng.standard_normal((rating_graph.num_u, 8)),
            v=rng.standard_normal((rating_graph.num_v, 8)),
            method="random",
        )
        random_report = evaluate_recommendation(random_result, split, n=10)
        assert oracle_report.f1 > random_report.f1
        assert oracle_report.ndcg > random_report.ndcg
        assert oracle_report.mrr > random_report.mrr

    def test_report_fields(self, rating_graph):
        split = split_edges(rating_graph, 0.6, seed=0)
        result = EmbeddingResult(
            u=np.ones((rating_graph.num_u, 2)),
            v=np.ones((rating_graph.num_v, 2)),
            method="ones",
            elapsed_seconds=1.5,
        )
        report = evaluate_recommendation(result, split, n=5)
        assert report.method == "ones"
        assert report.n == 5
        assert report.elapsed_seconds == 1.5
        assert report.num_users > 0
        assert "F1=" in report.row()


class TestRecommendationTask:
    def test_core_filter_applied(self, rating_graph):
        task = RecommendationTask(rating_graph, core=5, seed=0)
        assert task.graph.u_degrees().min() >= 5

    def test_same_split_for_all_methods(self, rating_graph):
        task = RecommendationTask(rating_graph, core=3, seed=0)
        first = task.split.test_u.copy()
        task.run(_OracleEmbedder(rating_graph))
        np.testing.assert_array_equal(task.split.test_u, first)

    def test_too_aggressive_core_rejected(self, rating_graph):
        with pytest.raises(ValueError, match="core"):
            RecommendationTask(rating_graph, core=10_000, seed=0)
