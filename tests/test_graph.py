import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from kempecolor import (
    Graph,
    GraphError,
    ParseError,
    UncoloredEdgeError,
    format_coloring,
    greedy_precolor,
    parse_coloring,
    parse_edge_list,
)
from kempecolor.graph import read_edge_list


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    possible = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    return Graph(n, edges)


def test_triangle_degrees(triangle):
    assert triangle.n == 3
    assert triangle.m == 3
    assert all(triangle.degree(v) == 2 for v in range(3))


def test_petersen_is_cubic(petersen_standard):
    assert petersen_standard.n == 10
    assert petersen_standard.m == 15
    assert all(petersen_standard.degree(v) == 3 for v in range(10))


def test_self_loop_rejected():
    with pytest.raises(GraphError, match=r"self-loop \(0, 0\)"):
        Graph(2, [(0, 0)])


def test_duplicate_edge_rejected_either_orientation():
    with pytest.raises(GraphError, match=r"duplicate edge \(1, 0\)"):
        Graph(2, [(0, 1), (1, 0)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(GraphError, match=r"\(0, 5\)"):
        Graph(3, [(0, 5)])


def test_degree_out_of_range():
    g = Graph(3, [(0, 1)])
    with pytest.raises(GraphError):
        g.degree(3)


def test_star_center_degree():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degree(0) == 3
    assert g.degree(1) == 1


def test_edges_start_uncolored(triangle):
    assert all(triangle.edge_color(u, v) is None for u, v in triangle.edges())


def test_endpoints_is_one_list_and_edges_a_copy_of_it():
    g = Graph(4, [(2, 0), (1, 3), (3, 0)])
    assert g.endpoints is g.endpoints
    assert g.endpoints == g.edges() == [(0, 2), (1, 3), (0, 3)]
    copy = g.edges()
    assert copy is not g.endpoints
    copy.clear()
    assert g.m == 3


def test_color_symmetry(triangle):
    triangle.set_edge_color(0, 1, 2)
    assert triangle.edge_color(1, 0) == 2


def test_nonexistent_edge_rejected():
    g = Graph(3, [(0, 1)])
    with pytest.raises(GraphError, match="does not exist"):
        g.edge_color(1, 2)


def test_greedy_precolor_makes_triangle_total(triangle):
    greedy_precolor(triangle, 3, random.Random(0))
    for u, v in triangle.edges():
        assert triangle.edge_color(u, v) in (0, 1, 2)


def test_distinct_incident_colors():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for i, (u, v) in enumerate(g.edges()):
        g.set_edge_color(u, v, i)
    assert len(set(g.incident_colors(0))) == 3
    for u, v in g.edges():
        g.set_edge_color(u, v, 0)
    assert len(set(g.incident_colors(0))) == 1


def test_distinct_incident_colors_degree_two():
    g = Graph(3, [(0, 1), (1, 2)])
    g.set_edge_color(0, 1, 1)
    g.set_edge_color(1, 2, 1)
    assert len(set(g.incident_colors(1))) == 1


def test_uncolored_incident_edge_raises():
    g = Graph(3, [(0, 1), (1, 2)])
    g.set_edge_color(0, 1, 0)
    with pytest.raises(UncoloredEdgeError):
        g.incident_colors(1)


@given(small_graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


@given(small_graphs(), st.randoms(use_true_random=False))
def test_color_symmetry_after_recolorings(g, rng):
    edges = g.edges()
    for _ in range(20):
        if not edges:
            break
        u, v = rng.choice(edges)
        c = rng.randrange(5)
        if rng.random() < 0.5:
            g.set_edge_color(v, u, c)
        else:
            g.set_edge_color(u, v, c)
        assert g.edge_color(u, v) == g.edge_color(v, u) == c


def test_edge_list_round_trip(k4):
    text = "4 6\n" + "\n".join(f"{u} {v}" for u, v in k4.edges()) + "\n"
    g = parse_edge_list(text)
    assert g.n == 4
    assert sorted(g.edges()) == sorted(k4.edges())


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1\n",
        "3 2\n0 1\n",
        "3 1\n0 1 2\n",
        "3 1\nx y\n",
        "2 1\n0 0\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)


def test_vertex_cap_is_inclusive(monkeypatch):
    import kempecolor.graph as graph_mod

    monkeypatch.setattr(graph_mod, "MAX_VERTICES", 5)
    assert parse_edge_list("5 1\n0 4\n").n == 5
    with pytest.raises(ParseError, match="cap of 5"):
        parse_edge_list("6 1\n0 5\n")


def test_vertex_cap_checked_before_allocating(monkeypatch):
    # the header alone must be rejected: Graph would allocate n dicts
    import kempecolor.graph as graph_mod

    def no_graph(*args):
        raise AssertionError("Graph built for an over-cap header")

    monkeypatch.setattr(graph_mod, "Graph", no_graph)
    with pytest.raises(ParseError, match="1000000000 vertices"):
        parse_edge_list("1000000000 0\n")


def test_edge_cap_is_inclusive(monkeypatch):
    import kempecolor.graph as graph_mod

    monkeypatch.setattr(graph_mod, "MAX_EDGES", 2)
    assert parse_edge_list("3 2\n0 1\n1 2\n").m == 2
    with pytest.raises(ParseError, match="3 edges, more than the cap of 2"):
        parse_edge_list("4 3\n0 1\n1 2\n2 3\n")


def test_edge_cap_checked_before_any_edge_line(monkeypatch):
    # the header alone is rejected: neither the line count nor a line is read
    import kempecolor.graph as graph_mod

    monkeypatch.setattr(graph_mod, "MAX_EDGES", 2)
    with pytest.raises(ParseError, match="3 edges, more than the cap of 2"):
        parse_edge_list("4 3\nx y\n")


def test_read_edge_list_checks_the_header_before_the_body(tmp_path, monkeypatch):
    # an over-cap header is rejected after reading about one chunk, not the file
    import kempecolor.graph as graph_mod

    monkeypatch.setattr(graph_mod, "MAX_EDGES", 1000)
    path = tmp_path / "over_cap.txt"
    path.write_bytes(b"2 200000\n" + b"0 1\n" * 200000)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="200000 edges, more than the cap of 1000$"):
            read_edge_list(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 20


def test_read_edge_list_reports_a_late_non_ascii_byte_by_its_offset(tmp_path):
    path = tmp_path / "late.txt"
    data = b"2 1\n0 1\n" + b"\n" * 100000 + b"\xe9\n"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"non-ASCII byte at offset {len(data) - 2}$"):
        read_edge_list(str(path))


def test_coloring_format_round_trip(triangle):
    for i, (u, v) in enumerate(triangle.edges()):
        triangle.set_edge_color(u, v, i)
    text = format_coloring(triangle)
    triples = parse_coloring(text)
    assert len(triples) == 3
    for u, v, c in triples:
        assert triangle.edge_color(u, v) == c


def test_format_coloring_requires_total(triangle):
    with pytest.raises(UncoloredEdgeError):
        format_coloring(triangle)
