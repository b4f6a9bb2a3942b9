"""Downstream evaluation tasks: recommendation, link prediction, classification.

Each public name is imported from its submodule on first use, so a process
that reads only top-k lists or similarity (``repro serve``, ``repro
refresh``) never loads the classification tasks or :mod:`repro.metrics`.
"""

import importlib

#: Every public name and the submodule that defines it.
_SUBMODULE = {
    "EdgeSplit": "splits",
    "split_edges": "splits",
    "sample_negative_edges": "splits",
    "LinkPredictionData": "splits",
    "link_prediction_split": "splits",
    "LogisticRegression": "logistic",
    "OneVsRestClassifier": "node_classification",
    "NodeClassificationTask": "node_classification",
    "NodeClassificationReport": "node_classification",
    "macro_f1": "node_classification",
    "RecommendationTask": "recommendation",
    "RecommendationReport": "recommendation",
    "evaluate_recommendation": "recommendation",
    "ground_truth_lists": "recommendation",
    "TopKEngine": "topk",
    "DEFAULT_BLOCK_ROWS": "topk",
    "SimilarityEngine": "similarity",
    "SIMILARITY_MODES": "similarity",
    "BLOCK_SOURCES": "similarity",
    "transposed_graph": "similarity",
    "LinkPredictionTask": "link_prediction",
    "LinkPredictionReport": "link_prediction",
    "evaluate_link_prediction": "link_prediction",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value
