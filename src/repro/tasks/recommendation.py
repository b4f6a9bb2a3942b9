"""Top-N recommendation evaluation (paper Section 6.3).

Protocol, mirrored from the paper:

1. Apply the 10-core setting and split edges 60/40 into train/test.
2. Fit an embedding method on the training graph.
3. Per user, the ground-truth list ranks the user's *test* neighbors by
   held-out edge weight; the recommendation list ranks all items by the
   embedding dot product ``U[u] . V[v]``, excluding items the user already
   interacted with in training.
4. Report F1, NDCG and MRR at N, macro-averaged over users.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.base import BipartiteEmbedder, EmbeddingResult
from ..graph import BipartiteGraph, k_core
from ..metrics import RankingScores
from .splits import EdgeSplit, split_edges
from .topk import TopKEngine

__all__ = [
    "RecommendationTask",
    "RecommendationReport",
    "ground_truth_lists",
    "evaluate_recommendation",
]


@dataclass(frozen=True)
class RecommendationReport:
    """Scores of one method on one recommendation workload."""

    method: str
    n: int
    f1: float
    ndcg: float
    mrr: float
    precision: float
    recall: float
    num_users: int
    elapsed_seconds: float
    #: Wall time spent producing recommendation lists (GEMM scoring, masking,
    #: selection).  Separate from ``metrics_seconds`` so the serving-path
    #: speedup is visible without the metric arithmetic diluting it.
    scoring_seconds: float = 0.0
    #: Wall time spent accumulating F1/NDCG/MRR over the produced lists.
    metrics_seconds: float = 0.0

    def row(self) -> str:
        """A Table-4-style text row."""
        return (
            f"{self.method:<22} F1={self.f1:.3f}  NDCG={self.ndcg:.3f}  "
            f"MRR={self.mrr:.3f}  ({self.elapsed_seconds:.2f}s fit, "
            f"{self.scoring_seconds:.2f}s score)"
        )


def ground_truth_lists(split: EdgeSplit) -> Dict[int, List[int]]:
    """Per-user ground truth: test neighbors ranked by held-out weight.

    One lexsort over the test edges — keys ``(user, -weight, item)`` with the
    item id breaking weight ties — then one split at the user boundaries.
    Equivalent to sorting each user's ``(weight, item)`` pairs by
    ``(-weight, item)``, without the per-user Python loop.
    """
    test_u = np.asarray(split.test_u, dtype=np.int64)
    if test_u.size == 0:
        return {}
    test_v = np.asarray(split.test_v, dtype=np.int64)
    test_w = np.asarray(split.test_w, dtype=np.float64)
    order = np.lexsort((test_v, -test_w, test_u))
    sorted_u = test_u[order]
    sorted_v = test_v[order]
    boundaries = np.nonzero(np.diff(sorted_u))[0] + 1
    groups = np.split(sorted_v, boundaries)
    users = sorted_u[np.concatenate(([0], boundaries))]
    return {int(u): group.tolist() for u, group in zip(users, groups)}


def evaluate_recommendation(
    result: EmbeddingResult,
    split: EdgeSplit,
    n: int = 10,
) -> RecommendationReport:
    """Score fitted embeddings against a recommendation split.

    Recommendation lists come from the :class:`~repro.tasks.topk.TopKEngine`
    streaming read-out, with the training edges masked: users with test
    edges are scored a block at a time and each block's metrics are
    accumulated before the next block is produced, so peak extra memory is
    one block's score buffer — the full ``users x items`` matrix is never
    materialized.  The report splits ``scoring_seconds`` (producing the
    lists) from ``metrics_seconds`` (F1/NDCG/MRR accumulation);
    ``elapsed_seconds`` remains the fit time.
    """
    truths = ground_truth_lists(split)
    scores = RankingScores()
    scoring_seconds = 0.0
    metrics_seconds = 0.0
    users = np.fromiter(truths.keys(), dtype=np.int64, count=len(truths))
    blocks = TopKEngine.from_result(result).iter_top_items(
        n, users=users, exclude=split.train
    )
    while True:
        started = time.perf_counter()
        block = next(blocks, None)
        scoring_seconds += time.perf_counter() - started
        if block is None:
            break
        block_users, items = block
        started = time.perf_counter()
        scores.update_batch(
            items.tolist(), [truths[int(u)] for u in block_users]
        )
        metrics_seconds += time.perf_counter() - started
    summary = scores.summary()
    return RecommendationReport(
        method=result.method,
        n=n,
        f1=summary["f1"],
        ndcg=summary["ndcg"],
        mrr=summary["mrr"],
        precision=summary["precision"],
        recall=summary["recall"],
        num_users=scores.num_users,
        elapsed_seconds=result.elapsed_seconds,
        scoring_seconds=scoring_seconds,
        metrics_seconds=metrics_seconds,
    )


class RecommendationTask:
    """A reusable recommendation workload: core-filter once, split once.

    Parameters
    ----------
    graph:
        The full weighted interaction graph.
    n:
        Recommendation list length (paper default 10).
    train_fraction:
        Training share of edges (paper uses 0.6).
    core:
        The k-core threshold (paper uses 10; lower fits small synthetic
        graphs).
    seed:
        Controls the split; fixed per task so every method sees the same
        train/test partition.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        *,
        n: int = 10,
        train_fraction: float = 0.6,
        core: int = 10,
        seed: Optional[int] = 0,
    ):
        if core > 0:
            graph = k_core(graph, core)
        if graph.num_u == 0 or graph.num_v == 0:
            raise ValueError("k-core filtering removed every node; lower `core`")
        self.graph = graph
        self.n = n
        self.split = split_edges(graph, train_fraction, seed=seed)

    def run(self, method: BipartiteEmbedder) -> RecommendationReport:
        """Fit ``method`` on the training graph and evaluate top-N quality."""
        result = method.fit(self.split.train)
        return evaluate_recommendation(result, self.split, self.n)
