"""The package's public surface: exported names and the Graph flat view."""

import ast
from collections import Counter
from pathlib import Path

import kempecolor
from kempecolor import ConflictDictionary, Graph, HeuristicParams, cli, conflicts, driver, verifier

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


def private_names(obj) -> set[str]:
    """Single-underscore attributes of an instance and of its class."""
    names = [*vars(obj), *vars(type(obj))]
    return {a for a in names if a.startswith("_") and not a.startswith("__")}


def graph_private_names():
    """Graph's own private attributes, plus the two the flat view replaced."""
    return private_names(Graph(2, [(0, 1)])) | {"_adj", "_colors"}


def conflict_private_names():
    g = Graph(2, [(0, 1)])
    g.colors[0] = 0
    return private_names(ConflictDictionary(g, 1))


def private_reads(private: set[str], owner: str) -> list[str]:
    """Uses of ``private`` attributes in package modules other than ``owner``.

    Access through ``self`` is left out: it names the module's own state.
    """
    src = Path(kempecolor.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == owner:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in private
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    return found


def test_no_module_reaches_into_graph_internals():
    private = graph_private_names()
    assert {"_edges", "_check_vertex"} <= private
    assert private_reads(private, "graph.py") == []


def test_no_module_reaches_into_conflict_dictionary_internals():
    # the levels, buckets and color index are read and written in
    # conflicts.py only
    private = conflict_private_names()
    assert {"_level", "_buckets", "_at", "_ends"} <= private
    assert private_reads(private, "conflicts.py") == []


def test_driver_calls_the_chain_loop_from_conflicts():
    # perfbench patches driver.kempe_start, so it must stay a module global
    assert driver.kempe_start is conflicts.kempe_start
    assert kempecolor.kempe_start is conflicts.kempe_start
    assert kempecolor.kempe_process is conflicts.kempe_process
    assert "color_edge" in vars(conflicts.ConflictDictionary)


def test_verifier_imports_nothing_from_the_search():
    # success=True is re-checked by the verifier, so it must not share the
    # search's code or state
    imported = set()
    for node in ast.walk(ast.parse(Path(verifier.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert "graph" in parts
    assert not parts & {"conflicts", "driver"}


# names perfbench's tracer swaps for timing wrappers
TRACED_NAMES = [
    (driver, "greedy_precolor"),
    (driver, "check_edge_coloring"),
    (cli, "read_edge_list"),
    (cli, "read_coloring"),
    (cli, "check_edge_coloring"),
]


def test_traced_names_are_globals_the_code_calls(monkeypatch, tmp_path, capsys):
    calls = Counter()
    for module, name in TRACED_NAMES:
        key, original = f"{module.__name__}.{name}", getattr(module, name)

        def counted(*args, key=key, original=original):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert driver.apply_heuristic(g, HeuristicParams(colors=3, seed=0)).success
    graph_path, coloring_path = tmp_path / "graph.txt", tmp_path / "coloring.txt"
    graph_path.write_text("4 6\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
    coloring_path.write_text(kempecolor.format_coloring(g))
    assert cli.main(["verify", str(graph_path), str(coloring_path), "-D", "3"]) == 0
    assert capsys.readouterr().out == "coloring: valid\n"
    assert set(calls) == {f"{module.__name__}.{name}" for module, name in TRACED_NAMES}


def test_clear_colors_keeps_the_colors_list():
    g = Graph(3, [(0, 1), (1, 2)])
    view = g.colors
    g.set_edge_color(0, 1, 0)
    g.colors[1] = 1
    g.clear_colors()
    assert g.colors is view
    assert view == [None, None]
