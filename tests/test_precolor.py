import random
import time
from collections import Counter
from itertools import combinations

import pytest

from kempecolor import (
    ConflictDictionary,
    Graph,
    HeuristicParams,
    apply_heuristic,
    greedy_precolor,
    random_precolor,
    random_regular_graph,
)


def test_greedy_star_is_always_proper():
    for seed in range(200):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        greedy_precolor(g, 3, random.Random(seed))
        assert len(set(g.incident_colors(0))) == 3
        assert ConflictDictionary(g, 3).total == 0


def test_greedy_single_edge_one_color():
    g = Graph(2, [(0, 1)])
    greedy_precolor(g, 1, random.Random(0))
    assert g.edge_color(0, 1) == 0


def test_greedy_k4_total_and_no_worse_than_random():
    k4_edges = list(combinations(range(4), 2))
    greedy_totals = []
    random_totals = []
    for seed in range(1000):
        g = Graph(4, k4_edges)
        greedy_precolor(g, 3, random.Random(seed))
        assert None not in g.colors
        greedy_totals.append(ConflictDictionary(g, 3).total)
        random_precolor(g, 3, random.Random(seed))
        random_totals.append(ConflictDictionary(g, 3).total)
    assert sum(greedy_totals) / 1000 <= sum(random_totals) / 1000


def test_greedy_clears_previous_colors():
    g = Graph(3, [(0, 1), (1, 2)])
    g.set_edge_color(0, 1, 7)
    greedy_precolor(g, 2, random.Random(0))
    assert all(g.edge_color(u, v) in (0, 1) for u, v in g.edges())


def test_greedy_without_colors_raises_before_any_write():
    # a coloring call keeps the graph's one colors list; a call without
    # colors leaves the edges' colors and the generator as they were, and
    # without edges it is a no-op
    g = Graph(3, [(0, 1), (1, 2)])
    view = g.colors
    greedy_precolor(g, 2, random.Random(0))
    assert g.colors is view
    before = list(view)
    for num_colors in (0, -1):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"{num_colors} colors"):
            greedy_precolor(g, num_colors, rng)
        assert g.colors == before and rng.getstate() == state
        greedy_precolor(Graph(3, []), num_colors, rng)
        assert rng.getstate() == state


def test_greedy_local_optimality():
    # replaying the greedy order: a clashing color is legal only when every
    # color was already used at the endpoints at assignment time
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randrange(3, 10)
        possible = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(possible, rng.randrange(1, len(possible) + 1)))
        colors = rng.randrange(1, g.max_degree() + 2)
        greedy_precolor(g, colors, rng)
        partial = {}
        for u, v in sorted(g.edges()):
            used = {partial[e] for e in partial if u in e or v in e}
            c = g.edge_color(u, v)
            assert c not in used or len(used) == colors
            partial[(u, v)] = c


def reference_greedy(graph, num_colors, rng):
    """Greedy pre-coloring with a set of used colors and a D-long free list
    per edge; only the colors given in this call count as used."""
    adj = graph.adj
    given = [None] * graph.m
    for u, v in sorted(graph.edges()):
        used = {given[idx] for idx in adj[u].values()}
        used.update(given[idx] for idx in adj[v].values())
        available = [c for c in range(num_colors) if c not in used]
        if available:
            given[adj[u][v]] = rng.choice(available)
        else:
            given[adj[u][v]] = rng.randrange(num_colors)
    graph.colors[:] = given


def assert_greedy_matches_reference(g, num_colors, seed):
    fast, ref = random.Random(seed), random.Random(seed)
    greedy_precolor(g, num_colors, fast)
    got = list(g.colors)
    reference_greedy(g, num_colors, ref)
    assert got == g.colors
    assert fast.getstate() == ref.getstate()


@pytest.mark.parametrize("delta, n", [(3, 30), (4, 25), (7, 20), (15, 20)])
def test_greedy_matches_list_based_reference(delta, n):
    # D = delta forces random colors often; D >= 2 delta - 1 never does
    g = random_regular_graph(n, delta, random.Random(delta))
    for num_colors in range(delta, 2 * delta + 2):
        for seed in range(4):
            assert_greedy_matches_reference(g, num_colors, seed)


def test_greedy_matches_list_based_reference_with_many_colors():
    g = random_regular_graph(20, 3, random.Random(1))
    for seed in range(5):
        assert_greedy_matches_reference(g, 10**4, seed)


def test_star_precolors_in_bounded_time():
    # with D = Δ the hub's taken colors fill up, so a walk that stepped
    # once per taken color below the drawn free one would make about D²/4
    # mask operations, each as wide as D
    k = 10_000
    g = Graph(k + 1, [(0, leaf) for leaf in range(1, k + 1)])
    start = time.perf_counter()
    report = apply_heuristic(g, HeuristicParams(colors=k, seed=0))
    elapsed = time.perf_counter() - start
    assert report.success and report.passes == 1
    assert elapsed < 5.0


def test_random_one_color_is_forced():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    random_precolor(g, 1, random.Random(5))
    assert all(g.edge_color(u, v) == 0 for u, v in g.edges())
    expected = sum(max(g.degree(v) - 1, 0) for v in range(g.n))
    assert ConflictDictionary(g, 1).total == expected


def test_random_colors_are_roughly_uniform():
    g = Graph(7, list(combinations(range(7), 2)))  # 21 edges
    counts = Counter()
    for seed in range(300):
        random_precolor(g, 3, random.Random(seed))
        counts.update(g.edge_color(u, v) for u, v in g.edges())
    total = sum(counts.values())
    for c in range(3):
        assert abs(counts[c] / total - 1 / 3) < 0.03


def test_random_draws_one_color_per_edge_in_id_order():
    g = Graph(4, [(2, 3), (0, 1), (1, 2)])
    view = g.colors
    random_precolor(g, 5, random.Random(3))
    rng = random.Random(3)
    assert g.colors == [rng.randrange(5) for _ in range(3)]
    assert g.colors is view


def test_random_empty_graph_noop():
    g = Graph(3, [])
    random_precolor(g, 3, random.Random(0))
    assert g.m == 0


def test_totality_both_modes():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randrange(2, 12)
        possible = list(combinations(range(n), 2))
        edges = rng.sample(possible, rng.randrange(0, len(possible) + 1))
        for mode in (greedy_precolor, random_precolor):
            g = Graph(n, edges)
            mode(g, 4, rng)
            assert None not in g.colors


@pytest.mark.parametrize("num_colors", [1, 2, 3, 5, 15, 64, 65, 50_000])
def test_random_draws_as_randrange(num_colors):
    g = random_regular_graph(40, 5, random.Random(num_colors))  # 100 edges
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        random_precolor(g, num_colors, rng)
        assert g.colors == [ref.randrange(num_colors) for _ in range(g.m)]
        assert rng.getstate() == ref.getstate()


def test_random_without_colors():
    # an error before any draw on a graph with edges, a no-op without edges
    for num_colors in (0, -1):
        g = Graph(3, [(0, 1)])
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"{num_colors} colors"):
            random_precolor(g, num_colors, rng)
        assert g.colors == [None] and rng.getstate() == state
        random_precolor(Graph(3, []), num_colors, rng)
        assert rng.getstate() == state
