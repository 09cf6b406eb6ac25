"""Exact verification workbench for norm attainment on pointed metric spaces."""

from .embeddings import main_theorem_pipeline, standard_family, verify_standard
from .freespace import free_element, free_norm_flow, free_norm_lp
from .lipfun import combine, lip_norm, lipfn
from .metric import catalog, make_space, truncate, validate
from .rational import BACKEND, Rat, format_rat, parse_rat, rat
from .rtree import tree_c0_pipeline, weighted_tree

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Rat",
    "catalog",
    "combine",
    "format_rat",
    "free_element",
    "free_norm_flow",
    "free_norm_lp",
    "lip_norm",
    "lipfn",
    "main_theorem_pipeline",
    "make_space",
    "parse_rat",
    "rat",
    "standard_family",
    "truncate",
    "tree_c0_pipeline",
    "validate",
    "verify_standard",
    "weighted_tree",
    "__version__",
]
