import random
import tracemalloc
from itertools import combinations

import pytest

from kempecolor import (
    ConflictDictionary,
    Graph,
    GraphError,
    HeuristicParams,
    apply_heuristic,
    conflict_level,
    greedy_precolor,
    random_precolor,
    random_regular_graph,
)


def star(colors):
    """K_{1,deg} with the given leaf-edge colors; center is vertex 0."""
    deg = len(colors)
    g = Graph(deg + 1, [(0, i) for i in range(1, deg + 1)])
    for i, c in enumerate(colors):
        g.set_edge_color(0, i + 1, c)
    return g


def colored_triangle(colors=(0, 0, 0)):
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    for (u, v), c in zip(g.edges(), colors):
        g.set_edge_color(u, v, c)
    return g


def test_conflict_level_all_distinct():
    assert conflict_level(star([0, 1, 2]), 0) == 0


def test_conflict_level_monochromatic_cubic():
    assert conflict_level(star([2, 2, 2]), 0) == 2


def test_conflict_level_degree_five():
    assert conflict_level(star([0, 0, 1, 1, 2]), 0) == 2


def test_conflict_level_isolated_vertex():
    g = Graph(2, [])
    assert conflict_level(g, 0) == 0


def test_dictionary_proper_coloring_is_empty():
    g = colored_triangle((0, 1, 2))
    cd = ConflictDictionary(g, 3)
    assert cd.total == 0
    assert cd.bucket_members(1) == set()


def test_dictionary_monochromatic_triangle():
    cd = ConflictDictionary(colored_triangle(), 3)
    assert cd.bucket_members(1) == {0, 1, 2}
    assert cd.total == 3


def test_dictionary_monochromatic_star_in_k4():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    for u, v in [(0, 1), (0, 2), (0, 3)]:
        g.set_edge_color(u, v, 0)
    g.set_edge_color(1, 2, 1)
    g.set_edge_color(1, 3, 2)
    g.set_edge_color(2, 3, 1)
    cd = ConflictDictionary(g, 3)
    assert 0 in cd.bucket_members(2)


def test_recolor_to_same_color_is_identity():
    g = colored_triangle((0, 1, 2))
    cd = ConflictDictionary(g, 3)
    assert cd.color_edge(0, 1, 0) == 0
    assert cd.total == 0
    cd.check_consistency()


def test_recolor_resolving_conflict_returns_minus_one():
    g = star([0, 0, 1])
    cd = ConflictDictionary(g, 3)
    # variation is reported at the second endpoint, here the center
    assert cd.color_edge(1, 0, 2) == -1
    assert cd.level(0) == 0


def test_recolor_creating_conflict_returns_plus_one():
    g = star([0, 1, 2])
    cd = ConflictDictionary(g, 3)
    assert cd.color_edge(2, 0, 0) == 1
    assert cd.level(0) == 1


def test_color_edge_rejects_bad_inputs():
    g = colored_triangle((0, 1, 2))
    cd = ConflictDictionary(g, 3)
    with pytest.raises(GraphError):
        cd.color_edge(0, 1, 3)
    g2 = Graph(4, [(0, 1), (2, 3)])
    g2.set_edge_color(0, 1, 0)
    g2.set_edge_color(2, 3, 0)
    cd2 = ConflictDictionary(g2, 2)
    with pytest.raises(GraphError):
        cd2.color_edge(0, 2, 1)


def test_max_level():
    g = star([0, 0, 0, 1, 1])
    cd = ConflictDictionary(g, 5)
    assert cd.level(0) == 3
    assert cd.max_level() == 3
    cd.color_edge(1, 0, 2)
    cd.color_edge(2, 0, 3)
    assert cd.max_level() == 1


def test_max_level_error_when_all_proper():
    cd = ConflictDictionary(colored_triangle((0, 1, 2)), 3)
    with pytest.raises(GraphError):
        cd.max_level()


def test_total_conflicts_monochromatic_regular():
    # n-vertex d-regular monochromatic coloring has conflictivity n*(d-1)
    k4 = Graph(4, list(combinations(range(4), 2)))
    for u, v in k4.edges():
        k4.set_edge_color(u, v, 0)
    assert ConflictDictionary(k4, 3).total == 4 * 2

    from kempecolor import odd_graph

    petersen = odd_graph(3)
    for u, v in petersen.edges():
        petersen.set_edge_color(u, v, 0)
    assert ConflictDictionary(petersen, 3).total == 10 * 2


def random_simple_graph(rng, max_n=10):
    n = rng.randrange(2, max_n + 1)
    possible = list(combinations(range(n), 2))
    k = rng.randrange(1, len(possible) + 1)
    return Graph(n, rng.sample(possible, k))


def test_incremental_matches_scratch_on_random_sequences():
    rng = random.Random(20240817)
    for _ in range(30):
        g = random_simple_graph(rng)
        colors = max(2, g.max_degree())
        random_precolor(g, colors, rng)
        cd = ConflictDictionary(g, colors)
        edges = g.edges()
        for _ in range(100):
            u, v = rng.choice(edges)
            cd.color_edge(u, v, rng.randrange(colors))
            cd.check_consistency()


def test_single_recolor_changes_levels_by_at_most_one():
    rng = random.Random(99)
    for _ in range(20):
        g = random_simple_graph(rng)
        colors = max(2, g.max_degree())
        greedy_precolor(g, colors, rng)
        cd = ConflictDictionary(g, colors)
        for _ in range(50):
            u, v = rng.choice(g.edges())
            before_u, before_v = cd.level(u), cd.level(v)
            variation = cd.color_edge(u, v, rng.randrange(colors))
            assert abs(cd.level(u) - before_u) <= 1
            assert abs(cd.level(v) - before_v) <= 1
            assert variation == cd.level(v) - before_v


def test_level_range_bound():
    rng = random.Random(7)
    for _ in range(20):
        g = random_simple_graph(rng)
        colors = max(2, g.max_degree())
        random_precolor(g, colors, rng)
        cd = ConflictDictionary(g, colors)
        for v in range(g.n):
            assert 0 <= cd.level(v) <= max(g.degree(v) - 1, 0)


def test_memory_does_not_grow_with_the_color_count():
    # one slot per (vertex, color) would be 200 * 50,000 slots, about 80 MB
    g = random_regular_graph(200, 3, random.Random(1))
    greedy_precolor(g, 50_000, random.Random(2))
    tracemalloc.start()
    try:
        ConflictDictionary(g, 50_000)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        report = apply_heuristic(g, HeuristicParams(colors=50_000, seed=3))
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.success
    assert build_peak < 4 * 2**20
    assert run_peak < 4 * 2**20


@pytest.mark.parametrize("bad", [None, -1, 3])
def test_dictionary_rejects_uncolored_or_out_of_range_edge(bad):
    # kempe_start's free-color rank walk assumes colors in [0, D)
    g = colored_triangle((0, 1, 2))
    g.set_edge_color(1, 2, bad)
    with pytest.raises(GraphError):
        ConflictDictionary(g, 3)


def test_check_consistency_raises_on_untracked_write():
    # a raw write bypasses the dictionary, so its levels go stale
    g = colored_triangle((0, 1, 2))
    cd = ConflictDictionary(g, 3)
    g.set_edge_color(0, 1, 2)
    with pytest.raises(RuntimeError):
        cd.check_consistency()


def test_check_consistency_raises_on_stale_level():
    g = star([0, 0, 1])
    cd = ConflictDictionary(g, 3)
    cd._level[0] = 0
    with pytest.raises(RuntimeError, match="level"):
        cd.check_consistency()


def test_check_consistency_raises_on_stale_bucket():
    g = star([0, 0, 1])
    cd = ConflictDictionary(g, 3)
    cd._buckets[1].add(1)
    with pytest.raises(RuntimeError, match="bucket"):
        cd.check_consistency()


def test_check_consistency_raises_on_stale_color_index():
    # vertex 0 has two 0-edges, so its entry for color 0 must read -1
    g = star([0, 0, 1])
    cd = ConflictDictionary(g, 3)
    assert cd._at[0] == {0: -1, 1: 2}
    cd._at[0][0] = 1
    with pytest.raises(RuntimeError, match="color index"):
        cd.check_consistency()
