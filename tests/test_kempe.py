import random
import re
import time
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from kempecolor import (
    ConflictDictionary,
    Graph,
    GraphError,
    conflict_level,
    greedy_precolor,
    heuristic_pass,
    kempe_process,
    kempe_start,
    odd_graph,
    random_precolor,
    random_regular_graph,
)
from kempecolor.conflicts import _SparseIndex, _skip_single_draws


def path_graph(colors):
    """Path 0-1-2-... with the given per-edge colors."""
    g = Graph(len(colors) + 1, [(i, i + 1) for i in range(len(colors))])
    for i, c in enumerate(colors):
        g.set_edge_color(i, i + 1, c)
    return g


def edge_colors(g):
    return [g.edge_color(u, v) for u, v in g.edges()]


def checked_level(cd, v):
    """v's level, read once ``cd`` has been checked against a recount."""
    cd.check_consistency()
    return conflict_level(cd.graph, v)


def reference_step(graph, cd, last, node, carry, rng):
    """One chain step through the validated public API.

    Picks the continuation (a uniform random neighbor of node, other than
    last, whose edge carries ``carry``; None if there is none), then
    recolors edge {last, node} to ``carry``.  Returns (conflict variation
    at node, old edge color, continuation).
    """
    candidates = [
        w for w in graph.neighbors(node) if w != last and graph.edge_color(node, w) == carry
    ]
    nxt = rng.choice(candidates) if candidates else None
    old = graph.edge_color(last, node)
    variation = cd.color_edge(last, node, carry)
    return variation, old, nxt


def reference_process(graph, cd, start, node, new_color, rng):
    """The step-by-step chain: reference_step until terminal or a revisit."""
    visited = set()
    last, carry, steps = start, new_color, 0
    while last not in visited:
        visited.add(last)
        variation, old, nxt = reference_step(graph, cd, last, node, carry, rng)
        steps += 1
        if variation < 0 or nxt is None:
            break
        last, node, carry = node, nxt, old
    return steps


def test_kempe_next_chain_end():
    # recoloring edge (0,1) to 2: vertex 1 has no other 2-edge, so no continuation
    g = path_graph([0, 1])
    cd = ConflictDictionary(g, 3)
    variation, old_color, nxt = reference_step(g, cd, 0, 1, 2, random.Random(0))
    assert nxt is None
    assert old_color == 0
    assert g.edge_color(0, 1) == 2


def test_kempe_next_single_candidate_is_forced():
    # vertex 1 sees colors (0 incoming, 1, 2); recolor incoming to 1:
    # the only 1-colored continuation is vertex 2, whose edge turns 0
    for seed in range(10):
        gg = Graph(4, [(0, 1), (1, 2), (1, 3)])
        gg.set_edge_color(0, 1, 0)
        gg.set_edge_color(1, 2, 1)
        gg.set_edge_color(1, 3, 2)
        cd = ConflictDictionary(gg, 3)
        assert kempe_process(gg, cd, 0, 1, 1, random.Random(seed)) == 2
        assert edge_colors(gg) == [1, 0, 2]


def test_kempe_next_two_candidates_split_evenly():
    counts = Counter()
    for seed in range(400):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        g.set_edge_color(0, 1, 0)
        g.set_edge_color(1, 2, 1)
        g.set_edge_color(1, 3, 1)
        cd = ConflictDictionary(g, 3)
        assert kempe_process(g, cd, 0, 1, 1, random.Random(seed)) == 2
        # the continuation's edge is the one that took the old color 0
        (nxt,) = [w for w in (2, 3) if g.edge_color(1, w) == 0]
        counts[nxt] += 1
    assert set(counts) == {2, 3}
    assert 130 <= counts[2] <= 270


def test_kempe_step_terminal_on_conflict_drop():
    # vertex 1 carries (0, 0, 2): recoloring the incoming 0-edge to 1
    # raises its distinct-color count, so its level drops and the chain ends
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    g.set_edge_color(0, 1, 0)
    g.set_edge_color(1, 2, 0)
    g.set_edge_color(1, 3, 2)
    cd = ConflictDictionary(g, 3)
    assert checked_level(cd, 1) == 1
    assert kempe_process(g, cd, 0, 1, 1, random.Random(0)) == 1
    assert edge_colors(g) == [1, 0, 2]
    assert checked_level(cd, 1) == 0


def test_negative_variation_implies_no_continuation():
    # a continuation edge carries the new color, which pins the node's
    # distinct-color count; so a level drop can only happen at a chain end
    rng = random.Random(555)
    for _ in range(300):
        g = random_simple_graph(rng)
        colors = max(2, g.max_degree())
        random_precolor(g, colors, rng)
        cd = ConflictDictionary(g, colors)
        u, v = rng.choice(g.edges())
        variation, _, nxt = reference_step(g, cd, u, v, rng.randrange(colors), rng)
        if variation < 0:
            assert nxt is None


def test_kempe_step_continues_with_carry_color():
    # (0,1) turns 1, so the chain goes on along the 1-edge to 2 carrying 0,
    # turns (1,2) to 0, and goes on along the 0-edge to 3 carrying 1
    g = path_graph([0, 1, 0])
    cd = ConflictDictionary(g, 3)
    assert kempe_process(g, cd, 0, 1, 1, random.Random(0)) == 3
    assert edge_colors(g) == [1, 0, 1]


def test_kempe_step_terminal_at_chain_end():
    # vertex 1 carries (0, 1, 1); turning (0,1) to 2 leaves its level at 1,
    # but no other 2-edge leaves vertex 1, so the chain ends after one step
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    for (u, v), c in zip(g.edges(), [0, 1, 1]):
        g.set_edge_color(u, v, c)
    cd = ConflictDictionary(g, 3)
    assert kempe_process(g, cd, 0, 1, 2, random.Random(0)) == 1
    assert edge_colors(g) == [2, 1, 1]
    assert checked_level(cd, 1) == 1


def test_kempe_process_single_recolor_chain():
    g = path_graph([0, 1])
    cd = ConflictDictionary(g, 3)
    steps = kempe_process(g, cd, 0, 1, 2, random.Random(0))
    assert steps == 1
    assert g.edge_color(0, 1) == 2
    assert g.edge_color(1, 2) == 1


def test_kempe_process_terminates_on_cycle_revisit():
    # even cycle alternating 0/1: swapping around it must stop by revisit
    n = 6
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    for i in range(n):
        g.set_edge_color(i, (i + 1) % n, i % 2)
    cd = ConflictDictionary(g, 2)
    steps = kempe_process(g, cd, 0, 1, 1, random.Random(0))
    assert steps <= n
    assert None not in g.colors


def test_kempe_process_resolves_k4_conflict():
    # K4 with vertex 0 at level 1: every seed must leave vertex 0 proper
    for seed in range(25):
        g = Graph(4, list(combinations(range(4), 2)))
        coloring = {(0, 1): 0, (0, 2): 1, (0, 3): 1, (1, 2): 2, (1, 3): 2, (2, 3): 0}
        for (u, v), c in coloring.items():
            g.set_edge_color(u, v, c)
        cd = ConflictDictionary(g, 3)
        assert checked_level(cd, 0) == 1
        before = cd.total
        kempe_start(g, cd, 3, 0, random.Random(seed))
        assert checked_level(cd, 0) == 0
        assert cd.total <= before


def test_kempe_start_forced_new_color():
    # colors (0, 0, 1) at a cubic vertex leave only color 2 available
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for seed in range(10):
        for (u, v), c in zip([(0, 1), (0, 2), (0, 3)], [0, 0, 1]):
            g.set_edge_color(u, v, c)
        cd = ConflictDictionary(g, 3)
        kempe_start(g, cd, 3, 0, random.Random(seed))
        assert 2 in g.incident_colors(0)
        assert checked_level(cd, 0) == 0


def test_kempe_start_random_new_color_is_uniform():
    counts = Counter()
    for seed in range(400):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        for u, v in g.edges():
            g.set_edge_color(u, v, 0)
        cd = ConflictDictionary(g, 3)
        kempe_start(g, cd, 3, 0, random.Random(seed))
        gained = set(g.incident_colors(0)) - {0}
        assert len(gained) == 1
        counts[gained.pop()] += 1
    assert set(counts) == {1, 2}
    assert 130 <= counts[1] <= 270


def test_kempe_start_noop_on_unconflicting_vertex():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for (u, v), c in zip(g.edges(), [0, 1, 2]):
        g.set_edge_color(u, v, c)
    cd = ConflictDictionary(g, 3)
    steps = kempe_start(g, cd, 3, 0, random.Random(0))
    assert steps == 0
    assert [g.edge_color(u, v) for u, v in g.edges()] == [0, 1, 2]


def random_simple_graph(rng, max_n=10):
    n = rng.randrange(3, max_n + 1)
    possible = list(combinations(range(n), 2))
    k = rng.randrange(2, len(possible) + 1)
    return Graph(n, rng.sample(possible, k))


def test_kempe_start_never_increases_conflictivity():
    rng = random.Random(4242)
    runs = 0
    while runs < 500:
        g = random_simple_graph(rng)
        colors = max(2, g.max_degree())
        random_precolor(g, colors, rng)
        cd = ConflictDictionary(g, colors)
        if cd.total == 0:
            continue
        v = cd.sample_max_level(rng)
        before = cd.total
        steps = kempe_start(g, cd, colors, v, rng)
        assert cd.total <= before
        assert steps <= g.n
        assert None not in g.colors
        cd.check_consistency()
        runs += 1


def reference_start(graph, cd, num_colors, v, rng):
    """kempe_start through the validated public graph API only."""
    seen, repeated = set(), []
    for w in graph.neighbors(v):
        c = graph.edge_color(v, w)
        if c in seen:
            repeated.append(w)
        else:
            seen.add(c)
    if not repeated:
        return 0
    node = rng.choice(repeated)
    new_color = rng.choice([c for c in range(num_colors) if c not in seen])
    return reference_process(graph, cd, v, node, new_color, rng)


def copy_colored(graph):
    twin = Graph(graph.n, graph.edges())
    for u, v in graph.edges():
        twin.set_edge_color(u, v, graph.edge_color(u, v))
    return twin


def dictionary_state(graph, cd):
    """Colors, levels, and every nonempty bucket in its internal order.

    ``cd`` is checked against a recount first, so its cached levels are
    the recounted ones.
    """
    cd.check_consistency()
    buckets = {lvl: list(b) for lvl, b in enumerate(cd._buckets) if b}
    return (
        [graph.edge_color(u, v) for u, v in graph.edges()],
        [conflict_level(graph, v) for v in range(graph.n)],
        cd.total,
        buckets,
    )


def assert_chains_match(g, colors, rng, operations, from_conflicts):
    """Run chains on g and on a copy through the reference; states must agree.

    Each chain starts at a sampled conflicting vertex (``kempe_start``) if
    ``from_conflicts`` and conflicts remain, otherwise at a random edge
    recolored to a random color other than its own (``kempe_process``).
    """
    twin = copy_colored(g)
    cd, cd_twin = ConflictDictionary(g, colors), ConflictDictionary(twin, colors)
    seed = rng.getrandbits(32)
    fast_rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(operations):
        if from_conflicts and cd.total > 0:
            v = cd.sample_max_level(fast_rng)
            assert v == cd_twin.sample_max_level(ref_rng)
            steps = kempe_start(g, cd, colors, v, fast_rng)
            ref_steps = reference_start(twin, cd_twin, colors, v, ref_rng)
        else:
            u, v = rng.choice(g.edges())
            c = rng.randrange(colors - 1)
            c += c >= g.edge_color(u, v)
            steps = kempe_process(g, cd, u, v, c, fast_rng)
            ref_steps = reference_process(twin, cd_twin, u, v, c, ref_rng)
        assert steps == ref_steps
        assert fast_rng.getstate() == ref_rng.getstate()
        assert dictionary_state(g, cd) == dictionary_state(twin, cd_twin)
        cd.check_consistency()


def test_fast_chain_matches_step_by_step_reference():
    rng = random.Random(8080)
    for trial in range(400):
        g = random_simple_graph(rng, max_n=14)
        max_deg = max(2, g.max_degree())
        colors = rng.choice([max_deg, max_deg + 1, 10**4])
        random_precolor(g, colors, rng)
        assert_chains_match(g, colors, rng, 5, from_conflicts=trial % 2)
    # wide vertices: colors repeat at most vertices, so the continuation is
    # often drawn among several edges and chains start and end at twins
    for trial, d in enumerate([8, 15] * 6):
        g = random_regular_graph(40, d, rng)
        random_precolor(g, d, rng)
        assert_chains_match(g, d, rng, 20, from_conflicts=trial % 4 < 2)


def test_kempe_start_matches_reference_with_many_colors():
    # the new chain color is found by rank among 10^4 colors, most of them free
    rng = random.Random(9090)
    for _ in range(100):
        g = random_simple_graph(rng, max_n=10)
        random_precolor(g, rng.randrange(1, 4), rng)
        twin = copy_colored(g)
        cd, cd_twin = ConflictDictionary(g, 10**4), ConflictDictionary(twin, 10**4)
        if cd.total == 0:
            continue
        seed = rng.getrandbits(32)
        fast_rng, ref_rng = random.Random(seed), random.Random(seed)
        v = cd.sample_max_level(fast_rng)
        assert v == cd_twin.sample_max_level(ref_rng)
        steps = kempe_start(g, cd, 10**4, v, fast_rng)
        assert steps == reference_start(twin, cd_twin, 10**4, v, ref_rng)
        assert fast_rng.getstate() == ref_rng.getstate()
        assert dictionary_state(g, cd) == dictionary_state(twin, cd_twin)


def test_kempe_process_rejects_color_out_of_range():
    g = path_graph([0, 1])
    cd = ConflictDictionary(g, 3)
    rng = random.Random(0)
    for c in (3, -1):
        message = re.escape(f"color {c} outside [0, 3)")
        assert_refused(lambda: kempe_process(g, cd, 0, 1, c, rng), (g,), cd, rng, message)
        # a missing edge is reported before the color
        assert_refused(lambda: kempe_process(g, cd, 0, 2, c, rng), (g,), cd, rng, "does not exist")
    assert [g.edge_color(u, v) for u, v in g.edges()] == [0, 1]


def test_kempe_start_without_free_color_raises():
    # degree 3 with only 2 colors: v conflicts but no color is absent at it
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for (u, v), c in zip(g.edges(), [0, 0, 1]):
        g.set_edge_color(u, v, c)
    cd = ConflictDictionary(g, 2)
    with pytest.raises(GraphError, match="no free color"):
        kempe_start(g, cd, 2, 0, random.Random(0))


def colored(n, colored_edges):
    g = Graph(n, [e for e, _ in colored_edges])
    for (u, v), c in colored_edges:
        g.set_edge_color(u, v, c)
    return g


def run_against_reference(g, colors, start, node, new_color, seed):
    """kempe_process on g and the reference_step loop on a copy; states must agree."""
    twin = copy_colored(g)
    cd, cd_twin = ConflictDictionary(g, colors), ConflictDictionary(twin, colors)
    fast_rng, ref_rng = random.Random(seed), random.Random(seed)
    steps = kempe_process(g, cd, start, node, new_color, fast_rng)
    assert steps == reference_process(twin, cd_twin, start, node, new_color, ref_rng)
    assert fast_rng.getstate() == ref_rng.getstate()
    assert dictionary_state(g, cd) == dictionary_state(twin, cd_twin)
    cd.check_consistency()
    return steps, cd


def test_interior_vertex_back_at_its_level_moves_to_bucket_end():
    # vertex 1 starts at level 1 (two 2-edges); the chain 0-1-2 raises it to
    # level 2 and drops it back to 1, so it must leave bucket 1 and rejoin it
    # behind vertices 5 and 8, which sit at level 1 throughout
    g = colored(11, [
        ((0, 1), 0), ((1, 2), 1), ((1, 3), 2), ((1, 4), 2),
        ((5, 6), 0), ((5, 7), 0), ((8, 9), 1), ((8, 10), 1),
    ])
    before = ConflictDictionary(copy_colored(g), 3)
    assert list(before._buckets[1]) == [1, 5, 8]
    steps, cd = run_against_reference(g, 3, 0, 1, 1, seed=0)
    assert steps == 2
    assert checked_level(cd, 1) == 1
    assert list(cd._buckets[1]) == [8, 5, 1]


def test_interior_vertex_with_a_twin_keeps_its_bucket_place():
    # as above, but vertex 1 keeps a second 0-edge (to 5): its level stays 2
    # at both steps, so it keeps its place ahead of 6 and 10 in bucket 2
    g = colored(14, [
        ((0, 1), 0), ((1, 2), 1), ((1, 3), 2), ((1, 4), 2), ((1, 5), 0),
        ((6, 7), 0), ((6, 8), 0), ((6, 9), 0), ((10, 11), 1), ((10, 12), 1), ((10, 13), 1),
    ])
    before = ConflictDictionary(copy_colored(g), 3)
    assert list(before._buckets[2]) == [1, 6, 10]
    steps, cd = run_against_reference(g, 3, 0, 1, 1, seed=0)
    assert steps == 2
    assert checked_level(cd, 1) == 2
    assert list(cd._buckets[2]) == [1, 6, 10]


def test_kempe_process_rejects_the_edges_own_color():
    # a chain swaps two distinct colors: recoloring the 0-edge (0, 1) to 0
    # is refused before any write or draw
    g = path_graph([0, 0, 1])
    cd = ConflictDictionary(g, 3)
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(GraphError, match="already has color 0"):
        kempe_process(g, cd, 0, 1, 0, rng)
    assert edge_colors(g) == [0, 0, 1]
    cd.check_consistency()
    assert rng.getstate() == state


def mismatched_pair(seed):
    """Two randomly colored cubic graphs on 40 vertices, a dictionary of the
    first, and a most conflicting vertex of the second."""
    rng = random.Random(seed)
    g1, g2 = random_regular_graph(40, 3, rng), random_regular_graph(40, 3, rng)
    random_precolor(g1, 3, rng)
    random_precolor(g2, 3, rng)
    v = max(range(g2.n), key=lambda x: conflict_level(g2, x))
    return g1, g2, ConflictDictionary(g1, 3), v


def assert_refused(call, graphs, cd, rng, match):
    """``call`` raises GraphError before any write to ``graphs`` or draw from ``rng``."""
    colors, state = [list(g.colors) for g in graphs], rng.getstate()
    with pytest.raises(GraphError, match=match):
        call()
    assert [g.colors for g in graphs] == colors
    assert rng.getstate() == state
    cd.check_consistency()


def test_kempe_start_rejects_a_graph_its_dictionary_does_not_track():
    for seed in range(30):
        g1, g2, cd, v = mismatched_pair(seed)
        rng = random.Random(seed)
        assert_refused(lambda: kempe_start(g2, cd, 3, v, rng), (g1, g2), cd, rng, "not the one")
        # an equal copy is still another graph
        twin = copy_colored(g1)
        assert_refused(lambda: kempe_start(twin, cd, 3, v, rng), (g1, twin), cd, rng, "not the one")


def test_kempe_start_rejects_a_color_count_its_dictionary_does_not_track():
    for seed in range(30):
        g1, _, cd, _ = mismatched_pair(seed)
        v = max(range(g1.n), key=lambda x: conflict_level(g1, x))
        rng = random.Random(seed)
        for num_colors in (2, 4):
            assert_refused(
                lambda: kempe_start(g1, cd, num_colors, v, rng), (g1,), cd, rng, "tracks 3"
            )


def test_kempe_process_rejects_a_graph_its_dictionary_does_not_track():
    for seed in range(30):
        g1, g2, cd, _ = mismatched_pair(seed)
        rng = random.Random(seed)
        u, v = g2.edges()[seed]
        c = (g2.edge_color(u, v) + 1) % 3
        assert_refused(
            lambda: kempe_process(g2, cd, u, v, c, rng), (g1, g2), cd, rng, "not the one"
        )


def test_chain_closing_on_its_start_vertex():
    # an alternating 0/1 six-cycle plus a pendant 1-edge at 0: the chain
    # swaps the whole cycle and ends back at vertex 0
    n = 6
    g = colored(n + 1, [((i, (i + 1) % n), i % 2) for i in range(n)] + [((0, n), 1)])
    steps, cd = run_against_reference(g, 3, 0, 1, 1, seed=0)
    assert steps == n
    assert [g.edge_color(i, (i + 1) % n) for i in range(n)] == [(i + 1) % 2 for i in range(n)]



def test_chain_closing_on_its_start_vertex_through_its_last_old_edge():
    # odd triangle with s = 0 at level 1: the chain comes back to s along its
    # last 0-edge while s has a single 1-edge, so on arrival s has no third
    # edge of the two colors, and only remembering the start stops the chain
    g = colored(3, [((0, 1), 0), ((1, 2), 1), ((2, 0), 0)])
    steps, cd = run_against_reference(g, 2, 0, 1, 1, seed=0)
    assert steps == 3
    assert edge_colors(g) == [1, 0, 1]
    assert checked_level(cd, 0) == 1


@pytest.mark.parametrize("width", [1, 2, 3, 5, 9])
def test_chain_draws_match_reference_for_candidate_counts(width):
    # start 0 -> hub 1, which has `width` 1-edges to vertices y; each y has
    # `width` 0-edges to leaves; so the chain makes two draws of that width
    for seed in range(20):
        edges = [((0, 1), 0)]
        nxt = 2
        for _ in range(width):
            y, nxt = nxt, nxt + 1
            edges.append(((1, y), 1))
            for _ in range(width):
                edges.append(((y, nxt), 0))
                nxt += 1
        g = colored(nxt, edges)
        steps, _ = run_against_reference(g, 2, 0, 1, 1, seed)
        assert steps == 3


def test_inlined_draw_matches_random_choice():
    # the chain loop draws with getrandbits instead of rng.choice; it must
    # pick the same candidate and leave the generator in the same state
    for n in range(1, 65):
        for seed in range(8):
            g = colored(n + 2, [((0, 1), 0)] + [((1, y), 1) for y in range(2, n + 2)])
            rng = random.Random(seed)
            assert kempe_process(g, ConflictDictionary(g, 2), 0, 1, 1, rng) == 2
            ref = random.Random(seed)
            want = ref.choice(list(range(2, n + 2)))
            assert [y for y in range(2, n + 2) if g.edge_color(1, y) == 0] == [want]
            assert rng.getstate() == ref.getstate()


def test_chain_closing_at_a_vertex_with_two_edges_of_the_carried_color():
    # b has two 1-edges when the chain arrives carrying 1; the chain goes
    # round b-p-q (or b-q-p) and stops on re-entering b
    g = colored(4, [((0, 1), 0), ((1, 2), 1), ((1, 3), 1), ((2, 3), 0)])
    for seed in range(8):
        steps, _ = run_against_reference(copy_colored(g), 2, 0, 1, 1, seed)
        assert steps == 4


def test_chain_closing_at_a_vertex_whose_old_color_has_a_twin():
    # b keeps a second 0-edge (to t) when the chain arrives; the chain goes
    # b-p-q-t and stops on re-entering b through t
    s, b, t, p, q = range(5)
    g = colored(5, [((s, b), 0), ((b, t), 0), ((b, p), 1), ((p, q), 0), ((q, t), 1)])
    steps, _ = run_against_reference(g, 2, s, b, 1, seed=0)
    assert steps == 5
    assert [g.edge_color(*e) for e in [(s, b), (b, t), (b, p), (p, q), (q, t)]] == [1, 1, 0, 1, 0]


def single_draw_loops(rng, r):
    """r ``randrange(1)`` draws as CPython makes them, one loop each."""
    for _ in range(r):
        while rng.getrandbits(1):
            pass


def test_skipped_single_draws_match_the_plain_loop():
    # 0..2100 crosses the plain-loop threshold (8) and the 1024-word round
    for seed in (0, 1, 2**40 + 3):
        ref = random.Random(seed)
        for r in range(2101):
            rng = random.Random(seed)
            _skip_single_draws(rng.getrandbits, r)
            assert rng.getstate() == ref.getstate(), r
            single_draw_loops(ref, 1)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 2**64), st.integers(0, 50))
# either side of each full 1024-word round, from a generator already drawn from
@example(1023, 5, 1)
@example(1024, 6, 17)
@example(1025, 7, 31)
@example(2048, 8, 32)
@example(2049, 9, 50)
def test_skipped_single_draws_match_the_plain_loop_after_other_draws(r, seed, before):
    # the replay starts wherever the generator stands, not only at a fresh seed
    rng, ref = random.Random(seed), random.Random(seed)
    rng.getrandbits(before + 1)
    ref.getrandbits(before + 1)
    _skip_single_draws(rng.getrandbits, r)
    single_draw_loops(ref, r)
    assert rng.getstate() == ref.getstate()


LONG = 1150  # simple steps in a row, more than one 1024-word replay round


def alternating_run(first, length, colors=(0, 1)):
    """Edges first-(first+1)-...-(first+length), colored alternately; every
    seventh inner vertex also gets two pendant 2-edges, so it sits at level 1."""
    edges = [((first + i, first + i + 1), colors[i % 2]) for i in range(length)]
    pendants = []
    for v in range(first + 7, first + length, 7):
        pendants.append((v, 2))
        pendants.append((v, 2))
    return edges, pendants


def with_pendants(n, edges, pendants):
    """The colored edges plus one new leaf per pendant (vertex, color)."""
    edges = edges + [((v, n + i), c) for i, (v, c) in enumerate(pendants)]
    return colored(n + len(pendants), edges)


@pytest.mark.parametrize("colors", [3, 10**4])
def test_long_simple_run_ending_without_a_continuation(colors):
    # path of LONG + 1 edges colored 0, 1, 0, ...: the chain swaps them all
    edges, pendants = alternating_run(0, LONG + 1)
    g = with_pendants(LONG + 2, edges, pendants)
    for seed in range(3):
        steps, cd = run_against_reference(copy_colored(g), colors, 0, 1, 1, seed)
        assert steps == LONG + 1
        assert isinstance(cd._at, list if colors == 3 else _SparseIndex)


@pytest.mark.parametrize("colors", [3, 10**4])
def test_long_simple_run_reaching_a_branch_and_going_on(colors):
    # a path of LONG edges ends at hub h, which has three edges of the color
    # the chain carries there; each leads to a path of 40 more simple steps
    edges, pendants = alternating_run(0, LONG)
    h = LONG
    carried = LONG % 2
    n = h + 1
    for _ in range(3):
        edges.append(((h, n), carried))
        tail, more = alternating_run(n, 40, (1 - carried, carried))
        edges += tail
        pendants += more
        n += 41
    g = with_pendants(n, edges, pendants)
    for seed in range(6):
        steps, cd = run_against_reference(copy_colored(g), colors, 0, 1, 1, seed)
        assert steps == LONG + 41
        assert isinstance(cd._at, list if colors == 3 else _SparseIndex)


@pytest.mark.parametrize("colors", [3, 10**4])
def test_long_odd_cycle_closing_on_its_start(colors):
    # an odd cycle colored 0, 1, ..., 1, 0: vertex 0 has two 0-edges, and the
    # chain goes all the way round and stops on coming back to it
    n = LONG + 1 if LONG % 2 == 0 else LONG + 2
    edges, pendants = alternating_run(0, n - 1)
    edges.append(((n - 1, 0), 0))
    g = with_pendants(n, edges, pendants)
    for seed in range(3):
        steps, cd = run_against_reference(copy_colored(g), colors, 0, 1, 1, seed)
        assert steps == n
        assert checked_level(cd, 0) == 1
        assert isinstance(cd._at, list if colors == 3 else _SparseIndex)


def chain_ends():
    """One graph per way a chain ends or leaves a turn of its two-step loop,
    with its start edge, new color and recolorings:
    (graph, colors, start, node, new_color, steps).

    The loop takes two simple steps per turn, the first in the color the
    turn starts with and the second in the other.  The chains from (0, 1)
    along a path 0-1-2-... colored 0, 1, 0, ... with new color 1 reach
    vertex p by their p-th step, in the first half of a turn when p is odd
    and in the second when p is even, as long as every step before it was
    simple.  Pendant edges have color 2.
    """
    long_run, pendants = alternating_run(0, LONG + 1)
    # s-b and b-t are 0-edges, so b is a branch; the chain goes round
    # b-p-q-t and re-enters b by its one 1-edge, s-b
    s, b, t, p, q = range(5)
    twin = colored(5, [((s, b), 0), ((b, t), 0), ((b, p), 1), ((p, q), 0), ((q, t), 1)])
    # b has two 1-edges, to x and y, each the start of a path b-x-q-t or
    # b-y-r-t; the chain re-enters b by t-b while two 1-edges are there
    s, b, t, x, y, q, r = range(7)
    several = colored(7, [
        ((s, b), 0), ((b, t), 0), ((b, x), 1), ((b, y), 1),
        ((x, q), 0), ((q, t), 1), ((y, r), 0), ((r, t), 1),
    ])
    # s = 0 has two 0-edges; the chain goes round and re-enters it at its
    # third step, where 0 has one edge of each chain color, as a simple
    # vertex would; a twin at vertex 1 makes the first step a general one,
    # which moves that revisit into the second half of a turn
    triangle = [((0, 1), 0), ((1, 2), 1), ((2, 0), 0)]

    def path(length, extra=()):
        edges = [((i, i + 1), i % 2) for i in range(length)] + list(extra)
        return colored(1 + max(max(e) for e, _ in edges), edges)

    # vertex 9 sits at level 1 throughout, so a bucket move shows in order
    aside = [((9, 10), 2), ((9, 11), 2)]
    return {
        "no continuation": (path_graph([0, 1, 0]), 2, 0, 1, 1, 3),
        "revisit by a single-candidate edge": (twin, 2, 0, 1, 1, 5),
        "revisit after a draw among several": (several, 3, 0, 1, 1, 5),
        "back at start": (colored(3, triangle), 2, 0, 1, 1, 3),
        "a run longer than LONG": (with_pendants(LONG + 2, long_run, pendants), 3, 0, 1, 1, LONG + 1),
        # the first half's ways out are the cases above; these leave by the
        # second half, or take the first half's other ways out
        "no continuation, second half": (path_graph([0, 1, 0, 1]), 3, 0, 1, 1, 4),
        "several carried, first half": (path(3, [((3, 4), 1), ((3, 5), 1)]), 3, 0, 1, 1, 4),
        "several carried, second half": (path(4, [((4, 5), 0), ((4, 6), 0)]), 3, 0, 1, 1, 5),
        "twin, first half": (path(3, [((3, 4), 1), ((3, 5), 0)]), 3, 0, 1, 1, 4),
        "twin, second half": (path(4, [((4, 5), 0), ((4, 6), 1)]), 3, 0, 1, 1, 5),
        "back at start, second half": (colored(4, triangle + [((1, 3), 0)]), 3, 0, 1, 1, 3),
        # an interior vertex at level 1 moves to the end of its bucket
        "level 1 interior, first half": (path(4, [((1, 5), 2), ((1, 6), 2)] + aside), 3, 0, 1, 1, 4),
        "level 1 interior, second half": (path(4, [((2, 5), 2), ((2, 6), 2)] + aside), 3, 0, 1, 1, 4),
    }


@pytest.mark.parametrize("end", list(chain_ends()))
def test_recolorings_returned_match_reference_at_each_chain_end(end):
    # kempe_process counts its recolorings without a counter per step; the
    # count must still be the reference's, however the chain ends
    g, colors, start, node, new_color, want = chain_ends()[end]
    for seed in range(4):
        steps, cd = run_against_reference(copy_colored(g), colors, start, node, new_color, seed)
        assert steps == want
        assert isinstance(cd._at, list)


@pytest.mark.parametrize("end", list(chain_ends()))
def test_each_chain_end_matches_reference_on_the_dict_index(end):
    # the same chains, with 10^4 colors putting the color index in its dict form
    g, _, start, node, new_color, want = chain_ends()[end]
    for seed in range(4):
        steps, cd = run_against_reference(copy_colored(g), 10**4, start, node, new_color, seed)
        assert steps == want
        assert isinstance(cd._at, _SparseIndex)


def reference_pass(graph, colors, repetition_limit, rng):
    """heuristic_pass with reference_start's chains, which recolor through
    ``color_edge``, and its counter rule written out step by step."""
    cd = ConflictDictionary(graph, colors)
    best = cd.total
    counter = 0
    while best > 0:
        v = cd.sample_max_level(rng)
        reference_start(graph, cd, colors, v, rng)
        current = cd.total
        if current == 0:
            return True
        if current >= best:
            counter += 1
            if counter > repetition_limit:
                return False
        else:
            counter = 0
        best = min(best, current)
    return True


def pass_graph(kind, n, d, rng):
    """A random graph of the given kind on n vertices, around degree d; the
    "dead hub" comes colored, with its hub on an odd cycle of about n edges."""
    if kind == "dead hub":
        return dead_hub(rng, n | 1)
    if kind == "hub":
        # vertex 0 is joined to all others, which share a sparse rest
        rest = list(combinations(range(1, n), 2))
        spokes = [(0, v) for v in range(1, n)]
        return Graph(n, spokes + rng.sample(rest, min(len(rest), n * d // 2)))
    g = random_regular_graph(n + (n * d) % 2, d, rng)
    if kind == "isolated":
        return Graph(g.n + n // 2, g.edges())
    return g


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["regular", "hub", "isolated", "dead hub"]),
    st.integers(5, 16),
    st.integers(2, 4),
    st.sampled_from(["delta", "delta+1", "2delta+40"]),
    st.sampled_from([greedy_precolor, random_precolor]),
    st.sampled_from([0, 1, 2, 5, 50]),
    st.integers(0, 2**32),
)
# a dead hub at D = delta walks its chains 1 and 2, goes dead at 2 and
# replays the rest, so at limit 2 or 50 the pass fails with one or 49
# replays, an odd parity whose swap only its settle makes
@example("dead hub", 5, 2, "delta", greedy_precolor, 2, 0)
@example("dead hub", 12, 3, "delta", random_precolor, 50, 7)
def test_pass_matches_whole_pass_reference(kind, n, d, width, precolor, limit, seed):
    # D = delta often leaves a class 2 graph at the repetition limit, and
    # 2 delta + 40 puts the color index in its dict form; so does the dead
    # hub's degree of 40, whose passes at D = delta are dead from the start
    rng = random.Random(seed)
    g = pass_graph(kind, n, d, rng)
    delta = g.max_degree()
    colors = {"delta": delta, "delta+1": delta + 1, "2delta+40": 2 * delta + 40}[width]
    if None in g.colors:
        precolor(g, colors, rng)
    twin = copy_colored(g)
    fast_rng, ref_rng = random.Random(seed), random.Random(seed)
    solved = heuristic_pass(g, colors, limit, fast_rng)
    assert solved == reference_pass(twin, colors, limit, ref_rng)
    assert g.colors == twin.colors
    assert fast_rng.getstate() == ref_rng.getstate()


def bucket_state(cd):
    """Every bucket in its internal order, every bucket position and the total."""
    return [list(b) for b in cd._buckets], list(cd._pos), cd.total


def replay_against_walk(g, colors, limit, seed):
    """A pass on g whose dictionary looks for a dead state after every chain
    that does not lower the total, in lockstep with the same pass on a copy
    whose chains always walk.  After each chain made while g's pass is dead,
    so replayed, the count, the draws and the buckets must agree.  The
    colors and the index must agree once settled: after every such chain in
    one pass of three, after runs of 2 to 7 in the others, so that even
    parities and several pending cycles are settled too, and at the pass's
    end.  ``heuristic_pass`` on a third copy must end with the same colors
    and draws.  Returns the number of replayed chains."""
    twin, driven = copy_colored(g), copy_colored(g)
    cd, walked = ConflictDictionary(g, colors), ConflictDictionary(twin, colors)
    rng, twin_rng = random.Random(seed), random.Random(seed)
    schedule = random.Random(seed + 1)
    every = schedule.randrange(3) == 0
    best, counter, replays, pending = cd.total, 0, 0, 0
    gap = 1 if every else schedule.randint(2, 7)
    while cd.total:
        dead = cd._dead is not None
        v = cd.sample_max_level(rng)
        assert walked.sample_max_level(twin_rng) == v
        steps = kempe_start(g, cd, colors, v, rng)
        assert kempe_start(twin, walked, colors, v, twin_rng) == steps
        assert walked._dead is None
        if dead:
            replays += 1
            assert cd._dead is not None
            assert rng.getstate() == twin_rng.getstate()
            assert bucket_state(cd) == bucket_state(walked)
            pending += 1
            if pending == gap:
                cd.settle()
                assert g.colors == twin.colors
                cd.check_consistency()
                pending = 0
                gap = 1 if every else schedule.randint(2, 7)
        if cd.total < best:
            best, counter = cd.total, 0
        else:
            counter += 1
            if counter > limit:
                break
            cd.detect_dead()
    cd.settle()
    assert g.colors == twin.colors
    assert rng.getstate() == twin_rng.getstate()
    cd.check_consistency()
    driven_rng = random.Random(seed)
    assert heuristic_pass(driven, colors, limit, driven_rng) == (cd.total == 0)
    assert driven.colors == twin.colors
    assert driven_rng.getstate() == twin_rng.getstate()
    return replays


@pytest.mark.parametrize("kind", ["cubic n=1000", "quartic n=101", "petersen"])
def test_replayed_chains_match_walked_chains_in_dead_passes(kind):
    # every pass at D = delta on an odd-order 4-regular graph or Petersen
    # fails, and most failing passes end dead; cubic passes fail less often
    replays = 0
    for seed in range(6):
        rng = random.Random(seed)
        if kind == "petersen":
            g = odd_graph(3)
        else:
            g = random_regular_graph(*((1000, 3) if kind.startswith("cubic") else (101, 4)), rng)
        colors = g.max_degree()
        for _ in range(3):
            greedy_precolor(g, colors, rng)
            replays += replay_against_walk(g, colors, 50, rng.getrandbits(32))
    assert replays >= 100


def dead_state(g, colors, seed, limit=200):
    """Chains from a pre-colored g, as a pass makes them, until the
    dictionary accepts the state as dead; None if the pass ends first."""
    cd = ConflictDictionary(g, colors)
    rng = random.Random(seed)
    best, counter = cd.total, 0
    while cd.total and counter <= limit:
        kempe_start(g, cd, colors, cd.sample_max_level(rng), rng)
        if cd.total < best:
            best, counter = cd.total, 0
        else:
            counter += 1
            if cd.detect_dead():
                return cd
    return None


@pytest.mark.parametrize("kind", ["cubic n=60", "quartic n=31", "petersen"])
def test_real_chains_from_an_accepted_state_close_on_their_start(kind):
    # from a state the detector accepts, every chain goes once round its
    # start's cycle, so it swaps exactly the recorded edges and the total stays
    accepted = 0
    for seed in range(30):
        rng = random.Random(seed)
        if kind == "petersen":
            g = odd_graph(3)
        else:
            g = random_regular_graph(*((60, 3) if kind.startswith("cubic") else (31, 4)), rng)
        colors = g.max_degree()
        random_precolor(g, colors, rng)
        cd = dead_state(g, colors, seed)
        if cd is None:
            continue
        accepted += 1
        cycles = {v: set(rec[5]) for v, rec in cd._dead.items()}
        twin = copy_colored(g)
        walked = ConflictDictionary(twin, colors)
        total = walked.total
        for _ in range(200):
            v = walked.sample_max_level(rng)
            before = list(twin.colors)
            steps = kempe_start(twin, walked, colors, v, rng)
            changed = {i for i, (x, y) in enumerate(zip(before, twin.colors)) if x != y}
            assert changed == cycles[v]
            assert steps == len(cycles[v])
            assert walked.total == total
        walked.check_consistency()
    assert accepted >= 10


def cycle_edges(first, length, a, c):
    """An odd cycle first-(first+1)-...-(first+length-1)-first whose edges are
    colored a, c, a, ..., a, so ``first`` has two a-edges and no c-edge."""
    ring = [first + i for i in range(length)] + [first]
    return [((x, y), a if i % 2 == 0 else c) for i, (x, y) in enumerate(zip(ring, ring[1:]))]


def dead_triangles(pairs, colors):
    """One triangle per color pair (a, c), its first vertex at level 1 with
    pendant edges in every other color, so that vertex has degree ``colors``."""
    edges, n = [], 0
    for a, c in pairs:
        v = n
        edges += cycle_edges(v, 3, a, c)
        n += 3
        for other in range(colors):
            if other not in (a, c):
                edges.append(((v, n), other))
                n += 1
    return colored(n, edges)


def test_detector_rejects_a_state_without_conflicts():
    for g in (Graph(3, []), path_graph([0, 1])):
        cd = ConflictDictionary(g, 2)
        assert not cd.detect_dead()
        assert cd._dead is None


def test_detector_accepts_equal_or_disjoint_pairs_on_separate_cycles():
    for pairs in ([(0, 1)], [(0, 1), (1, 0)], [(0, 1), (2, 3)], [(0, 1), (3, 2), (1, 0)]):
        g = dead_triangles(pairs, 4)
        cd = ConflictDictionary(g, 4)
        assert cd.detect_dead()
        assert sorted(cd._dead) == [3 * i + 2 * i for i in range(len(pairs))]


@pytest.mark.parametrize("case", [
    "pairs share one color", "level 2", "D above the degree", "path component",
    "two conflicts on one component",
])
def test_detector_rejects(case):
    if case == "pairs share one color":
        g, colors = dead_triangles([(0, 1), (1, 2)], 4), 4
    elif case == "level 2":
        # a dead triangle beside a star whose three edges share a color
        g = dead_triangles([(0, 1)], 4)
        g = colored(g.n + 4, [((u, v), g.edge_color(u, v)) for u, v in g.edges()]
                    + [((g.n, g.n + i), 0) for i in (1, 2, 3)])
        colors = 4
    elif case == "D above the degree":
        g, colors = dead_triangles([(0, 1)], 4), 5
    elif case == "path component":
        # v = 0 has two 0-edges and no 1-edge, but its {0, 1} component is
        # the path 2-0-1-3, not a cycle
        g, colors = colored(5, [((0, 1), 0), ((0, 2), 0), ((1, 3), 1), ((0, 4), 2)]), 3
    else:
        # an alternating five-cycle through 0 and 2, both with two 0-edges
        # and no 1-edge: a chain from either stops at the other
        g = colored(5, [((0, 1), 0), ((1, 2), 0), ((2, 3), 0), ((3, 4), 1), ((4, 0), 0)])
        colors = 2
    cd = ConflictDictionary(g, colors)
    assert cd.total > 0
    assert not cd.detect_dead()
    assert cd._dead is None


def test_a_conflicting_vertex_on_another_cycle_moves_in_its_bucket():
    # v = 0 on a {0, 1} five-cycle through w = 2, which is itself at level 1
    # on a {2, 3} triangle: a chain from v moves w to the end of bucket 1
    edges = cycle_edges(0, 5, 0, 1)
    edges += [((0, 5), 2), ((0, 6), 3)]
    edges += [((2, 7), 2), ((7, 8), 3), ((8, 2), 2)]
    # vertex 9 sits at level 1 on a {0, 1} triangle of its own
    edges += cycle_edges(9, 3, 0, 1) + [((9, 12), 2), ((9, 13), 3)]
    g = colored(14, edges)
    for seed in range(4):
        assert replay_against_walk(copy_colored(g), 4, 20, seed) > 0
    # every order of bucket 1: v first, v last, w just before v, and so on
    for order in permutations([0, 2, 9]):
        replayed, walked = copy_colored(g), copy_colored(g)
        cd, twin = ConflictDictionary(replayed, 4), ConflictDictionary(walked, 4)
        assert sorted(cd._buckets[1]) == [0, 2, 9]
        for d in (cd, twin):
            d._buckets[1][:] = order
            for i, x in enumerate(order):
                d._pos[x] = i
        assert cd.detect_dead()
        assert cd._dead[0][2] == [2]
        rng, twin_rng = random.Random(0), random.Random(0)
        assert kempe_start(replayed, cd, 4, 0, rng) == kempe_start(walked, twin, 4, 0, twin_rng)
        assert twin._dead is None
        assert rng.getstate() == twin_rng.getstate()
        assert cd._buckets[1] == twin._buckets[1], order
        assert cd._pos == twin._pos, order
        cd.settle()
        assert replayed.colors == walked.colors
        cd.check_consistency()


def dead_hub(rng, length):
    """Vertex 0 of degree 40 at level 1 on an odd {a, c} cycle of ``length``
    edges, every other spoke to a leaf in its own color, the edges in a
    random order; at D = 40 the pass is dead and the index is a dict."""
    perm = rng.sample(range(40), 40)
    a, c = perm[0], perm[1]
    edges = cycle_edges(0, length, a, c)
    edges += [((0, length + i), color) for i, color in enumerate(perm[2:])]
    rng.shuffle(edges)
    return colored(length + 38, edges)


def test_replay_on_the_dict_index_deletes_the_emptied_slot():
    for seed in range(4):
        g = dead_hub(random.Random(seed), 5)
        cd = ConflictDictionary(g, 40)
        assert isinstance(cd._at, _SparseIndex)
        assert cd.detect_dead()
        keys = set(cd._at)
        kempe_start(g, cd, 40, 0, random.Random(seed))
        assert set(cd._at) == keys  # the swap waits for settle
        cd.settle()
        # the hub's doubled slot is gone and its free one is filled: one key traded
        assert None not in cd._at.values()
        assert len(set(cd._at) - keys) == len(keys - set(cd._at)) == 1
        cd.check_consistency()
        assert replay_against_walk(g, 40, 50, seed) > 0


def dead_triangle_dictionary():
    g = dead_triangles([(0, 1)], 3)
    cd = ConflictDictionary(g, 3)
    assert cd.detect_dead()
    return g, cd


def test_color_edge_drops_the_records():
    # the edge's own color writes nothing, but its check reads the color,
    # so it settles and drops the records all the same
    for u, v, color in ((0, 3, 2), (1, 2, 2)):
        g, cd = dead_triangle_dictionary()
        cd.color_edge(u, v, color)
        assert cd._dead is None
        cd.check_consistency()


def test_kempe_process_drops_the_records():
    g, cd = dead_triangle_dictionary()
    kempe_process(g, cd, 0, 3, 1, random.Random(0))
    assert cd._dead is None
    cd.check_consistency()


def test_a_walked_chain_drops_the_records():
    # a chain from the dead vertex after a write has walked, not replayed
    g, cd = dead_triangle_dictionary()
    cd.color_edge(1, 2, 2)
    assert cd.detect_dead() is False
    kempe_start(g, cd, 3, 0, random.Random(0))
    assert cd._dead is None
    cd.check_consistency()


def test_a_replay_keeps_the_records():
    # triangle 0-1-2 with edges 0: (0, 1), 1: (1, 2), 2: (2, 0), walked from
    # vertex 0's later 0-edge: [parity, L, inner, a, c, walk]
    g, cd = dead_triangle_dictionary()
    record = cd._dead[0]
    assert record == [0, 3, [], 0, 1, [2, 1, 0]]
    rng = random.Random(0)
    for k in range(1, 4):
        assert kempe_start(g, cd, 3, 0, rng) == 3
        # a replay flips the parity and writes nothing else in the record
        assert cd._dead == {0: record}
        assert record == [k % 2, 3, [], 0, 1, [2, 1, 0]]
    cd.settle()
    assert cd._dead is None
    cd.check_consistency()


@pytest.mark.parametrize("kind", ["quartic n=31", "petersen"])
def test_detector_finds_the_same_cycles_after_a_settle_with_a_and_c_swapped(kind):
    # a settle mid-pass drops the records, but the state stays dead: a swapped
    # cycle has c doubled at v on the same two edges, so it is walked as before
    found = 0
    for seed in range(30):
        rng = random.Random(seed)
        g = odd_graph(3) if kind == "petersen" else random_regular_graph(31, 4, rng)
        colors = g.max_degree()
        random_precolor(g, colors, rng)
        cd = dead_state(g, colors, seed)
        if cd is None:
            continue
        for _ in range(rng.randrange(1, 9)):
            kempe_start(g, cd, colors, cd.sample_max_level(rng), rng)
        found += any(record[0] for record in cd._dead.values())
        want = {}
        for v, (parity, steps, inner, a, c, walk) in cd._dead.items():
            if parity:
                a, c = c, a
            want[v] = [0, steps, inner, a, c, walk]
        cd.settle()
        assert cd._dead is None
        cd.check_consistency()
        assert cd.detect_dead()
        assert cd._dead == want
    assert found >= 5


# (pairs, colors, replayed chain starts): one dead triangle at vertex 0, and
# two at vertices 0 and 5 on disjoint pairs, the second replayed twice
DEAD_STATES = {
    "one cycle": ([(0, 1)], 3, [0]),
    "two cycles": ([(0, 1), (2, 3)], 4, [0, 5, 5]),
}


def replayed_twins(state):
    """A dead state after an odd number of replayed chains, its cycle at
    vertex 0 swapped once, and a twin whose same chains walked."""
    pairs, colors, starts = DEAD_STATES[state]
    g = dead_triangles(pairs, colors)
    twin = copy_colored(g)
    cd, walked = ConflictDictionary(g, colors), ConflictDictionary(twin, colors)
    assert cd.detect_dead()
    rng, twin_rng = random.Random(1), random.Random(1)
    for v in starts:
        assert kempe_start(g, cd, colors, v, rng) == kempe_start(twin, walked, colors, v, twin_rng)
    # vertex 0's triangle 0-1-2 has gone from colors 0, 1, 0 to 1, 0, 1
    assert twin.edge_color(1, 2) == 0
    return colors, (g, cd, rng), (twin, walked, twin_rng)


# each reads a color or a slot that a pending swap would leave stale: edge
# (1, 2) colored 0 to 0 is a no-op only once settled, a chain coloring it 1
# is refused on the stale color, and vertex 1 has no record
STALE_READS = {
    "color_edge": lambda colors, g, cd, rng: cd.color_edge(1, 2, 0),
    "kempe_process": lambda colors, g, cd, rng: kempe_process(g, cd, 1, 2, 1, rng),
    "kempe_start without a record": lambda colors, g, cd, rng: kempe_start(g, cd, colors, 1, rng),
    "check_consistency": lambda colors, g, cd, rng: cd.check_consistency(),
}


@pytest.mark.parametrize("state", sorted(DEAD_STATES))
@pytest.mark.parametrize("path", sorted(STALE_READS))
def test_no_stale_read_while_swaps_are_pending(path, state):
    colors, (g, cd, rng), (twin, walked, twin_rng) = replayed_twins(state)
    call = STALE_READS[path]
    assert call(colors, g, cd, rng) == call(colors, twin, walked, twin_rng)
    assert g.colors == twin.colors
    assert rng.getstate() == twin_rng.getstate()
    assert bucket_state(cd) == bucket_state(walked)
    # each path settles and drops the records, so the next chain walks
    assert cd._dead is None
    assert kempe_start(g, cd, colors, 0, rng) == kempe_start(twin, walked, colors, 0, twin_rng)
    cd.settle()
    assert g.colors == twin.colors
    assert rng.getstate() == twin_rng.getstate()
    cd.check_consistency()
    walked.check_consistency()


def test_a_walk_on_a_corrupt_index_raises():
    # vertex 0 at level 1 on the {0, 1} five-cycle 0-1-2-3-4-0 is walked
    # from its later 0-edge, (4, 0); vertex 3's 0-slot is pointed at its
    # 1-edge, back to 4, so the walk would go 4-3-4-3-... without end
    g = colored(6, cycle_edges(0, 5, 0, 1) + [((0, 5), 2)])
    cd = ConflictDictionary(g, 3)
    cd._at[3 * cd._width + 1] = g.edge_index(3, 4)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="corrupt color index"):
        cd.detect_dead()
    assert time.perf_counter() - start < 5
    assert cd._dead is None


@pytest.mark.parametrize("case", ["a step in place", "a walk back"])
def test_a_chain_on_a_corrupt_index_raises(case):
    if case == "a step in place":
        # on the triangle 0-1-2, vertex 1's 1-slot is pointed at edge (0, 2),
        # not at its own (1, 2); the far end of an edge is the sum of its
        # ends less the near one, 0 + 2 - 1 = 1, so the chain stays at 1
        g = colored(4, cycle_edges(0, 3, 0, 1) + [((0, 3), 2)])
        v, corrupt = 1, g.edge_index(0, 2)
    else:
        # on the path 0-1-...-5 colored 0, 1, 0, 1, 0, vertex 5's empty
        # 1-slot is pointed at its 0-edge, so the chain turns back there and
        # would recolor ten edges of a five-edge path
        g = path_graph([0, 1, 0, 1, 0])
        v, corrupt = 5, g.edge_index(4, 5)
    cd = ConflictDictionary(g, 3)
    cd._at[v * cd._width + 2] = corrupt
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="corrupt color index"):
        kempe_process(g, cd, 0, 1, 1, random.Random(0))
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("n", [3, 4, 5, 40, 41])
def test_the_longest_simple_runs_end_below_the_cap(n):
    # a chain raises past n + 2 simple steps between two draws among several
    # edges; a path on all n vertices has n - 2 of them, and an odd cycle
    # on all n vertices, walked from the vertex with two 0-edges, n - 1
    g = path_graph([i % 2 for i in range(n - 1)])
    steps, _ = run_against_reference(g, 2, 0, 1, 1, n)
    assert steps == n - 1
    if n % 2:
        g = colored(n, cycle_edges(0, n, 0, 1))
        steps, cd = run_against_reference(g, 2, 0, 1, 1, n)
        assert steps == n
        assert checked_level(cd, 0) == 1
