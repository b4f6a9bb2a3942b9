"""The paper's primary contribution: measures, objective, GEBE, and GEBE^p."""

from .ablations import MHPOnlyBNE, MHSOnlyBNE
from .attributed import AttributedGEBE, smooth_attributes
from .base import BipartiteEmbedder, EmbeddingResult
from .selection import select_topn
from .gebe import GEBE, gebe_geometric, gebe_poisson, gebe_uniform
from .gebe_p import GEBEPoisson, poisson_eigenvalues
from .measures import (
    h_matrix,
    h_matrix_v_side,
    mhp_matrix,
    mhs_matrix,
    mhs_matrix_v_side,
    path_weight_matrix,
)
from .objective import (
    ObjectiveValue,
    evaluate_objective,
    proximity_loss,
    similarity_loss,
)
from .pmf import GeometricPMF, PathLengthPMF, PoissonPMF, UniformPMF, make_pmf

__all__ = [
    "AttributedGEBE",
    "smooth_attributes",
    "BipartiteEmbedder",
    "select_topn",
    "EmbeddingResult",
    "GEBE",
    "GEBEPoisson",
    "MHPOnlyBNE",
    "MHSOnlyBNE",
    "gebe_uniform",
    "gebe_geometric",
    "gebe_poisson",
    "poisson_eigenvalues",
    "PathLengthPMF",
    "UniformPMF",
    "GeometricPMF",
    "PoissonPMF",
    "make_pmf",
    "path_weight_matrix",
    "h_matrix",
    "h_matrix_v_side",
    "mhs_matrix",
    "mhs_matrix_v_side",
    "mhp_matrix",
    "ObjectiveValue",
    "evaluate_objective",
    "proximity_loss",
    "similarity_loss",
]
