import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from kempecolor import (
    ConflictDictionary,
    Graph,
    GraphError,
    HeuristicParams,
    UncoloredEdgeError,
    apply_heuristic,
    brute_force_chromatic_index,
    check_edge_coloring,
    greedy_precolor,
    random_precolor,
    random_regular_graph,
)


def star(colors):
    g = Graph(len(colors) + 1, [(0, i) for i in range(1, len(colors) + 1)])
    for i, c in enumerate(colors):
        g.set_edge_color(0, i + 1, c)
    return g


def test_properly_colored_distinct():
    assert check_edge_coloring(star([0, 1, 2]), 3)


def test_properly_colored_repeat():
    assert not check_edge_coloring(star([0, 0, 1]), 3)


def test_properly_colored_out_of_range():
    assert not check_edge_coloring(star([0, 1, 3]), 3)


def test_check_coloring_after_successful_run(k4):
    report = apply_heuristic(k4, HeuristicParams(colors=3, seed=0))
    assert report.success
    assert check_edge_coloring(k4, 3)


def test_triangle_never_proper_with_two_colors(triangle):
    assert brute_force_chromatic_index(triangle) == 3
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for (u, v), col in zip(triangle.edges(), (a, b, c)):
                    triangle.set_edge_color(u, v, col)
                assert not check_edge_coloring(triangle, 2)


def test_edgeless_graph_is_properly_colored():
    assert check_edge_coloring(Graph(4, []), 1)


def test_chromatic_index_k4(k4):
    assert brute_force_chromatic_index(k4) == 3


def test_chromatic_index_petersen(petersen):
    assert brute_force_chromatic_index(petersen) == 4


def test_chromatic_index_odd_cycles():
    for n in (3, 5, 7):
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        assert brute_force_chromatic_index(g) == 3
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert brute_force_chromatic_index(g) == 2


def test_chromatic_index_edge_cap():
    g = Graph(18, [(i, i + 1) for i in range(17)])
    with pytest.raises(GraphError, match="cap"):
        brute_force_chromatic_index(g)
    g = Graph(17, [(i, i + 1) for i in range(16)])
    assert brute_force_chromatic_index(g) == 2


def test_total_conflicts_zero_iff_proper():
    rng = random.Random(2718)
    for _ in range(100):
        n = rng.randrange(2, 9)
        possible = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(possible, rng.randrange(1, len(possible) + 1)))
        colors = max(1, g.max_degree() + rng.randrange(0, 2))
        random_precolor(g, colors, rng)
        assert (ConflictDictionary(g, colors).total == 0) == check_edge_coloring(
            g, colors
        )


def test_vizing_sandwich_on_small_graphs():
    rng = random.Random(1618)
    for _ in range(40):
        n = rng.randrange(2, 8)
        possible = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(possible, rng.randrange(1, min(len(possible), 12) + 1)))
        delta = g.max_degree()
        assert delta <= brute_force_chromatic_index(g) <= delta + 1


def test_brute_force_raises_if_delta_plus_one_fails(triangle, monkeypatch):
    import kempecolor.verifier as verifier

    monkeypatch.setattr(verifier, "_edge_colorable", lambda graph, num_colors: False)
    with pytest.raises(RuntimeError, match="max degree \\+ 1"):
        brute_force_chromatic_index(triangle)


def outcome(check, graph, num_colors):
    try:
        return check(graph, num_colors)
    except UncoloredEdgeError as exc:
        return f"raised: {exc}"


def reference_check(graph, num_colors):
    """Vertex by vertex: distinct incident colors, all in range."""
    for v in range(graph.n):
        incident = graph.incident_colors(v)  # raises at an uncolored edge
        if len(set(incident)) != len(incident) or not all(
            0 <= c < num_colors for c in incident
        ):
            return False
    return True


def test_check_matches_per_vertex_reference():
    rng = random.Random(5150)
    seen = Counter()
    for _ in range(3000):
        n = rng.randrange(1, 9)
        possible = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(possible, rng.randrange(0, len(possible) + 1)))
        palette = rng.randrange(1, g.max_degree() + 3)
        # sometimes D is not positive, or so large that the check builds no table
        colors = rng.choice((0, -1, 10**6)) if rng.random() < 0.15 else palette
        stray = [None, None, -2, -1, colors, colors + 1]
        for idx in range(g.m):
            g.colors[idx] = rng.choice(stray) if rng.random() < 0.1 else rng.randrange(palette)
        got = outcome(check_edge_coloring, g, colors)
        assert got == outcome(reference_check, g, colors)
        seen[got if isinstance(got, bool) else "raised"] += 1
    assert min(seen[True], seen[False], seen["raised"]) >= 100


def test_check_stops_at_the_first_bad_vertex():
    # vertex 0 repeats a color; the uncolored edge (2, 3) is reached later
    g = Graph(4, [(0, 1), (0, 2), (2, 3)])
    g.colors[:] = [0, 0, None]
    assert check_edge_coloring(g, 2) is False
    # relabelled so the uncolored edge's vertex is reached first
    g = Graph(4, [(3, 2), (3, 1), (0, 1)])
    g.colors[:] = [0, 0, None]
    with pytest.raises(UncoloredEdgeError, match=r"edge \(0, 1\) incident to 0"):
        check_edge_coloring(g, 2)


def test_check_needs_no_table_of_n_times_d_bytes():
    # n * D is 10**7: a byte per (vertex, color) slot would take about 10 MB
    g = random_regular_graph(200, 3, random.Random(4))
    greedy_precolor(g, 50_000, random.Random(4))
    tracemalloc.start()
    try:
        assert check_edge_coloring(g, 50_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
