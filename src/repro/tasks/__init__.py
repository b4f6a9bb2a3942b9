"""Downstream evaluation tasks: recommendation, link prediction, classification."""

from .link_prediction import (
    LinkPredictionReport,
    LinkPredictionTask,
    evaluate_link_prediction,
)
from .logistic import LogisticRegression
from .node_classification import (
    NodeClassificationReport,
    NodeClassificationTask,
    OneVsRestClassifier,
    macro_f1,
)
from .recommendation import (
    RecommendationReport,
    RecommendationTask,
    evaluate_recommendation,
    ground_truth_lists,
)
from .similarity import (
    DEFAULT_BLOCK_SOURCES,
    SIMILARITY_MODES,
    SimilarityEngine,
    transposed_graph,
)
from .topk import DEFAULT_BLOCK_ROWS, TopKEngine
from .splits import (
    EdgeSplit,
    LinkPredictionData,
    link_prediction_split,
    sample_negative_edges,
    split_edges,
)

__all__ = [
    "EdgeSplit",
    "split_edges",
    "sample_negative_edges",
    "LinkPredictionData",
    "link_prediction_split",
    "LogisticRegression",
    "OneVsRestClassifier",
    "NodeClassificationTask",
    "NodeClassificationReport",
    "macro_f1",
    "RecommendationTask",
    "RecommendationReport",
    "evaluate_recommendation",
    "ground_truth_lists",
    "TopKEngine",
    "DEFAULT_BLOCK_ROWS",
    "SimilarityEngine",
    "SIMILARITY_MODES",
    "DEFAULT_BLOCK_SOURCES",
    "transposed_graph",
    "LinkPredictionTask",
    "LinkPredictionReport",
    "evaluate_link_prediction",
]
