"""Expander-graph work spreading: generation, validation, placement."""

from .bipartite import BipartiteGraph, appranks_per_node_of, home_node_of
from .biregular import check_feasible, grouped_biregular, random_biregular
from .cache import GraphCache, default_cache_dir, generate_graph, get_graph
from .expansion import (biadjacency, is_good_expander, spectral_gap,
                        vertex_isoperimetric_number)
from .placement import Placement, WorkerKey, build_placement
from .search import circulant_graph, search_best_graph

__all__ = [
    "BipartiteGraph",
    "home_node_of",
    "appranks_per_node_of",
    "random_biregular",
    "grouped_biregular",
    "check_feasible",
    "vertex_isoperimetric_number",
    "spectral_gap",
    "is_good_expander",
    "biadjacency",
    "circulant_graph",
    "search_best_graph",
    "GraphCache",
    "get_graph",
    "generate_graph",
    "default_cache_dir",
    "Placement",
    "WorkerKey",
    "build_placement",
]
