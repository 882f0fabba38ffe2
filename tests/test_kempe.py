import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from kempecolor import (
    ConflictDictionary,
    Graph,
    GraphError,
    kempe_process,
    kempe_start,
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
    assert cd.level(1) == 1
    assert kempe_process(g, cd, 0, 1, 1, random.Random(0)) == 1
    assert edge_colors(g) == [1, 0, 2]
    assert cd.level(1) == 0


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
    assert cd.level(1) == 1


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
    assert g.is_fully_colored()


def test_kempe_process_resolves_k4_conflict():
    # K4 with vertex 0 at level 1: every seed must leave vertex 0 proper
    for seed in range(25):
        g = Graph(4, list(combinations(range(4), 2)))
        coloring = {(0, 1): 0, (0, 2): 1, (0, 3): 1, (1, 2): 2, (1, 3): 2, (2, 3): 0}
        for (u, v), c in coloring.items():
            g.set_edge_color(u, v, c)
        cd = ConflictDictionary(g, 3)
        assert cd.level(0) == 1
        before = cd.total
        kempe_start(g, cd, 3, 0, random.Random(seed))
        assert cd.level(0) == 0
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
        assert cd.level(0) == 0


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
        assert g.is_fully_colored()
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
    """Colors, levels, and every nonempty bucket in its internal order."""
    buckets = {lvl: list(b) for lvl, b in enumerate(cd._buckets) if b}
    return (
        [graph.edge_color(u, v) for u, v in graph.edges()],
        [cd.level(v) for v in range(graph.n)],
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
    with pytest.raises(GraphError):
        kempe_process(g, cd, 0, 1, 3, random.Random(0))
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
    assert cd.level(1) == 1
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
    assert cd.level(1) == 2
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
    assert cd.level(0) == 1


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
        assert cd.level(0) == 1
        assert isinstance(cd._at, list if colors == 3 else _SparseIndex)
