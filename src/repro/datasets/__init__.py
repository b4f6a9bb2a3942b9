"""Synthetic dataset generators standing in for the paper's 10 real graphs."""

from .community import BlockModel, stochastic_block_bipartite
from .random_bipartite import erdos_renyi_bipartite, power_law_bipartite
from .rating import RatingModel, latent_factor_ratings
from .toy import (
    complete_bipartite,
    figure1_graph,
    path_graph,
    star_graph,
    toy_graph,
    two_cliques,
)
from .zoo import DATASETS, PAPER_SIZES, DatasetSpec, dataset_names, load_dataset

__all__ = [
    "figure1_graph",
    "path_graph",
    "star_graph",
    "complete_bipartite",
    "toy_graph",
    "two_cliques",
    "erdos_renyi_bipartite",
    "power_law_bipartite",
    "RatingModel",
    "latent_factor_ratings",
    "BlockModel",
    "stochastic_block_bipartite",
    "DatasetSpec",
    "DATASETS",
    "PAPER_SIZES",
    "dataset_names",
    "load_dataset",
]
