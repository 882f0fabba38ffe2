import random
import tracemalloc
from itertools import combinations

import pytest

from kempecolor import (
    ConflictDictionary,
    Graph,
    GraphError,
    HeuristicParams,
    UncoloredEdgeError,
    apply_heuristic,
    conflict_level,
    greedy_precolor,
    random_precolor,
    random_regular_graph,
)
from kempecolor.conflicts import _nth_free, _SparseIndex


def star(colors):
    """K_{1,deg} with the given leaf-edge colors; center is vertex 0."""
    deg = len(colors)
    g = Graph(deg + 1, [(0, i) for i in range(1, deg + 1)])
    for i, c in enumerate(colors):
        g.set_edge_color(0, i + 1, c)
    return g


def checked_level(cd, v):
    """v's level, read once ``cd`` has been checked against a recount."""
    cd.check_consistency()
    return conflict_level(cd.graph, v)


def at_level(cd, level):
    """The vertices at ``level``, read once ``cd`` has been checked against a recount."""
    cd.check_consistency()
    return {v for v in range(cd.graph.n) if conflict_level(cd.graph, v) == level}


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
    assert at_level(cd, 1) == set()


def test_dictionary_monochromatic_triangle():
    cd = ConflictDictionary(colored_triangle(), 3)
    assert at_level(cd, 1) == {0, 1, 2}
    assert cd.total == 3


def test_dictionary_monochromatic_star_in_k4():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    for u, v in [(0, 1), (0, 2), (0, 3)]:
        g.set_edge_color(u, v, 0)
    g.set_edge_color(1, 2, 1)
    g.set_edge_color(1, 3, 2)
    g.set_edge_color(2, 3, 1)
    cd = ConflictDictionary(g, 3)
    assert 0 in at_level(cd, 2)


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
    assert checked_level(cd, 0) == 0


def test_recolor_creating_conflict_returns_plus_one():
    g = star([0, 1, 2])
    cd = ConflictDictionary(g, 3)
    assert cd.color_edge(2, 0, 0) == 1
    assert checked_level(cd, 0) == 1


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
    assert checked_level(cd, 0) == 3
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


def recolor_at_random_against_scratch(sparse):
    # 2Δ + 40 colors outgrow 32 slots per vertex plus 4 per edge
    rng = random.Random(20240817)
    for _ in range(30):
        g = random_simple_graph(rng)
        colors = 2 * g.max_degree() + 40 if sparse else max(2, g.max_degree())
        random_precolor(g, colors, rng)
        cd = ConflictDictionary(g, colors)
        if sparse:
            assert isinstance(cd._at, _SparseIndex)
        edges = g.edges()
        for _ in range(100):
            u, v = rng.choice(edges)
            cd.color_edge(u, v, rng.randrange(colors))
            cd.check_consistency()


def test_incremental_matches_scratch_on_random_sequences():
    recolor_at_random_against_scratch(sparse=False)


def test_incremental_matches_scratch_on_random_sequences_on_the_dict_index():
    recolor_at_random_against_scratch(sparse=True)


def test_single_recolor_changes_levels_by_at_most_one():
    rng = random.Random(99)
    for _ in range(20):
        g = random_simple_graph(rng)
        colors = max(2, g.max_degree())
        greedy_precolor(g, colors, rng)
        cd = ConflictDictionary(g, colors)
        for _ in range(50):
            u, v = rng.choice(g.edges())
            before_u, before_v = checked_level(cd, u), checked_level(cd, v)
            variation = cd.color_edge(u, v, rng.randrange(colors))
            assert abs(checked_level(cd, u) - before_u) <= 1
            assert abs(checked_level(cd, v) - before_v) <= 1
            assert variation == checked_level(cd, v) - before_v


def test_level_range_bound():
    rng = random.Random(7)
    for _ in range(20):
        g = random_simple_graph(rng)
        colors = max(2, g.max_degree())
        random_precolor(g, colors, rng)
        cd = ConflictDictionary(g, colors)
        for v in range(g.n):
            assert 0 <= checked_level(cd, v) <= max(g.degree(v) - 1, 0)


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


@pytest.mark.parametrize(
    "faults, error, message",
    [
        ({1: None, 3: 5}, UncoloredEdgeError, "edge (0, 1) is uncolored"),
        ({1: 5, 3: None}, GraphError, "edge (0, 1) has color 5 outside [0, 3)"),
        ({2: 3, 1: 3}, GraphError, "edge (0, 1) has color 3 outside [0, 3)"),
        ({2: None, 3: 3}, UncoloredEdgeError, "edge (1, 2) is uncolored"),
        ({3: -1, 0: -1}, GraphError, "edge (3, 4) has color -1 outside [0, 3)"),
        ({2: -2, 1: 4}, GraphError, "edge (0, 1) has color 4 outside [0, 3)"),
    ],
)
def test_dictionary_names_the_first_bad_edge_in_id_order(faults, error, message):
    # two faults each; the build vets all colors at once, and the first bad
    # edge by id (not by (min, max)) decides the error and its message
    g = Graph(5, [(4, 3), (0, 1), (1, 2), (2, 3)])
    for i, c in enumerate([0, 1, 0, 1]):
        g.colors[i] = faults.get(i, c)
    with pytest.raises(GraphError) as raised:
        ConflictDictionary(g, 3)
    assert type(raised.value) is error
    assert str(raised.value) == message


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
    # the center's level is the first slot of its record
    assert cd._at[0] == 1
    cd._at[0] = 0
    with pytest.raises(RuntimeError, match="level"):
        cd.check_consistency()


def test_check_consistency_raises_on_stale_bucket():
    g = star([0, 0, 1])
    cd = ConflictDictionary(g, 3)
    cd._buckets[1].append(1)
    with pytest.raises(RuntimeError, match="bucket"):
        cd.check_consistency()


def test_check_consistency_raises_on_stale_bucket_position():
    # vertices 1 and 2 share a bucket; swapping them leaves _pos behind
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
    for u, v in g.edges():
        g.set_edge_color(u, v, 0)
    cd = ConflictDictionary(g, 3)
    members = cd._buckets[2]
    assert sorted(members) == [1, 2]
    members.reverse()
    with pytest.raises(RuntimeError, match="positions"):
        cd.check_consistency()


def test_check_consistency_raises_on_stale_color_index():
    # vertex 0 has two 0-edges, so its slot for color 0 must read -1; its
    # record is its level, 1, then its slots for colors 0, 1 and 2
    g = star([0, 0, 1])
    cd = ConflictDictionary(g, 3)
    assert cd._at[0:4] == [1, -1, 2, None]
    cd._at[1] = 1
    with pytest.raises(RuntimeError, match="color index"):
        cd.check_consistency()


def test_color_index_is_flat_until_colors_outgrow_the_edges():
    # n records of D + 1 slots, a level and then D color slots: 3 color
    # slots per vertex at D = 3 on a cubic graph, 75 per vertex at D = 75,
    # past 32 per vertex plus 4 per edge, where every level and only the
    # filled color slots are kept; both read the same
    g = random_regular_graph(20, 3, random.Random(4))
    random_precolor(g, 3, random.Random(5))
    flat, sparse = ConflictDictionary(g, 3), ConflictDictionary(g, 75)
    assert len(flat._at) == 20 * 4
    assert len(sparse._at) == 20 + 20 * 3 - flat._at.count(None)
    for v in range(20):
        assert flat._at[v * 4] == sparse._at[v * 76] == conflict_level(g, v)
        for c in range(3):
            assert sparse._at[v * 76 + 1 + c] == flat._at[v * 4 + 1 + c]
        assert sparse._at[v * 76 + 4] is None
    # both compare their levels with conflict_level's recount
    flat.check_consistency()
    sparse.check_consistency()
    # 32 * 20 + 4 * 30 = 760 slots is the most a list may take here
    assert type(ConflictDictionary(g, 38)._at) is list
    assert type(ConflictDictionary(g, 39)._at) is not list


def test_sample_max_level_draws_as_randrange():
    # `size` monochromatic 3-stars make the top bucket, level 2; a
    # monochromatic 2-path sits below it at level 1, and a properly colored
    # 4-star makes an empty bucket 3 above it
    for size in range(1, 71):
        edges = [((0, i), i - 1) for i in range(1, 5)] + [((5, 6), 0), ((6, 7), 0)]
        for k in range(size):
            hub = 8 + 4 * k
            edges += [((hub, hub + j), 0) for j in (1, 2, 3)]
        g = Graph(8 + 4 * size, [e for e, _ in edges])
        for (u, v), c in edges:
            g.set_edge_color(u, v, c)
        cd = ConflictDictionary(g, 4)
        assert cd.max_level() == 2
        members = list(cd._buckets[2])
        assert len(members) == size
        for seed in range(8):
            rng, ref = random.Random(seed), random.Random(seed)
            assert cd.sample_max_level(rng) == members[ref.randrange(size)]
            assert rng.getstate() == ref.getstate()


def test_top_level_is_one_below_the_max_degree():
    # the center of a monochromatic 4-star is at level 3 = Δ - 1, the top
    # bucket, and is the only conflicting vertex
    cd = ConflictDictionary(star([0, 0, 0, 0]), 4)
    assert at_level(cd, 3) == {0}
    assert cd.max_level() == 3
    assert cd.total == 3


def test_nth_free_matches_a_sorted_list():
    rng = random.Random(21)
    for num_colors in (1, 2, 3, 15, 63, 64, 65, 200, 50_000):
        for density in (0.0, 0.01, 0.5, 0.99, 1.0):
            bits = [rng.random() < density for _ in range(num_colors)]
            taken = int("0" + "".join("1" if b else "0" for b in reversed(bits)), 2)
            free = [c for c, b in enumerate(bits) if not b]
            if not free:
                continue
            for r in {0, len(free) - 1, *rng.sample(range(len(free)), min(len(free), 4))}:
                assert _nth_free(taken, r) == free[r]
