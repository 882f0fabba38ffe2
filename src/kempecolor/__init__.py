"""Edge-coloring of simple graphs by Kempe-chain conflict displacement."""

from .bench import instance_seed
from .conflicts import (
    ConflictDictionary,
    conflict_level,
    greedy_precolor,
    kempe_process,
    kempe_start,
    random_precolor,
)
from .driver import HeuristicParams, ParameterError, RunReport, apply_heuristic, heuristic_pass
from .generators import odd_graph, random_regular_graph
from .graph import (
    Graph,
    GraphError,
    ParseError,
    UncoloredEdgeError,
    format_coloring,
    parse_coloring,
    parse_edge_list,
)
from .verifier import brute_force_chromatic_index, check_edge_coloring

__version__ = "0.1.0"

__all__ = [
    "ConflictDictionary",
    "Graph",
    "GraphError",
    "HeuristicParams",
    "ParameterError",
    "ParseError",
    "RunReport",
    "UncoloredEdgeError",
    "apply_heuristic",
    "brute_force_chromatic_index",
    "check_edge_coloring",
    "conflict_level",
    "format_coloring",
    "greedy_precolor",
    "heuristic_pass",
    "instance_seed",
    "kempe_process",
    "kempe_start",
    "odd_graph",
    "parse_coloring",
    "parse_edge_list",
    "random_precolor",
    "random_regular_graph",
]
