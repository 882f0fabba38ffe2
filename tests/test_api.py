"""The package's public surface: exported names and the Graph flat view."""

import ast
from pathlib import Path

import kempecolor
from kempecolor import Graph

PUBLIC_NAMES = [
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
    "properly_colored",
    "random_precolor",
    "random_regular_graph",
]


def test_all_is_the_documented_api():
    assert sorted(kempecolor.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(kempecolor, name) is not None


def graph_private_names():
    """Graph's own private attributes, plus the two the flat view replaced."""
    instance = vars(Graph(2, [(0, 1)]))
    names = {a for a in [*instance, *vars(Graph)] if a.startswith("_") and not a.startswith("__")}
    return names | {"_adj", "_colors"}


def test_no_module_reaches_into_graph_internals():
    private = graph_private_names()
    assert {"_edges", "_check_vertex"} <= private
    src = Path(kempecolor.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "graph.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in private
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []


def test_clear_colors_keeps_the_colors_list():
    g = Graph(3, [(0, 1), (1, 2)])
    view = g.colors
    g.set_edge_color(0, 1, 0)
    g.colors[1] = 1
    g.clear_colors()
    assert g.colors is view
    assert view == [None, None]
