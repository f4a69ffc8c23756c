"""Relative efficiency of decision making units under box-uncertain data."""

from ._kernels import BACKEND
from .dataset import (DeaDataset, EfficiencyResult, build_envelopment_lp,
                      is_extreme, scale_dataset, solve_all, solve_nominal)
from .facets import (FacetSet, SizeLimitError, enumerate_efficient_facets,
                     exact_udea)
from .geometry import Hyperplane, MinUncertainty, min_uncertainty_to_facet
from .iterative import iterative_udea
from .lp import (LinearProgram, LpSolution, MalformedProgramError, SolverFault,
                 solve_lp)
from .outcome import UdeaOutcome
from .robust import (UncertaintyConfig, directional_distance,
                     robust_efficiency, transform_box)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "DeaDataset", "EfficiencyResult", "FacetSet", "Hyperplane",
    "LinearProgram", "LpSolution", "MalformedProgramError", "MinUncertainty",
    "SizeLimitError", "SolverFault", "UdeaOutcome", "UncertaintyConfig",
    "build_envelopment_lp", "directional_distance",
    "enumerate_efficient_facets", "exact_udea", "is_extreme",
    "iterative_udea", "min_uncertainty_to_facet", "robust_efficiency",
    "scale_dataset", "solve_all", "solve_lp", "solve_nominal",
    "transform_box",
]
