"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The sweeps take a few
minutes in total, so every test here is marked `slow` and
`pytest -m "not slow"` leaves them out; everything is seeded and
deterministic apart from wall clock readings.
"""

import random
import time
from itertools import combinations

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from kempecolor import (
    ConflictDictionary,
    Graph,
    HeuristicParams,
    apply_heuristic,
    brute_force_chromatic_index,
    check_edge_coloring,
    kempe_start,
    odd_graph,
    random_precolor,
)
from kempecolor.bench import run_sweep, summarize


pytestmark = pytest.mark.slow


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cubic_scaling():
    records = run_sweep([3], [1000, 2000, 4000, 8000], 30, base_seed=0)
    return summarize(records)


def test_criterion_1_random_cubic_success_rate():
    summary = summarize(run_sweep([3], [100, 1000, 10000], 30, base_seed=101))
    rates = {n: summary[(3, n)]["success_rate"] for n in (100, 1000, 10000)}
    ok = all(rate >= 29 / 30 for rate in rates.values())
    report(1, ok, f"cubic success rates (verified colorings): {rates}")


def test_criterion_2_cubic_scaling_trend(cubic_scaling):
    t1000 = cubic_scaling[(3, 1000)]["avg"][0]
    t8000 = cubic_scaling[(3, 8000)]["avg"][0]
    ratio = t8000 / t1000
    ok = 4 <= ratio <= 16
    report(2, ok, f"avgTime(8000)/avgTime(1000) = {ratio:.2f}, bounds [4, 16]")


def test_criterion_3_iteration_flatness(cubic_scaling):
    p1000 = cubic_scaling[(3, 1000)]["avg"][1]
    p8000 = cubic_scaling[(3, 8000)]["avg"][1]
    ok = p8000 <= 3 and p8000 <= 2 * p1000
    report(3, ok, f"avg passes: n=1000 -> {p1000:.2f}, n=8000 -> {p8000:.2f}")


def test_criterion_4_regular_degree_sweep():
    degrees = [3, 7, 11, 15]
    sizes = [200, 400, 800]
    summary = summarize(run_sweep(degrees, sizes, 30, base_seed=0))
    failures = []
    for n in sizes:
        prev = 0.0
        for d in degrees:
            cell = summary[(d, n)]
            if cell["success_rate"] < 29 / 30:
                failures.append(f"success rate {cell['success_rate']:.3f} at d={d} n={n}")
            avg_t = cell["avg"][0]
            if avg_t < prev:
                failures.append(f"avgTime decreased at d={d} n={n}")
            prev = avg_t
    report(4, not failures, failures or "all 12 cells >= 29/30, avgTime nondecreasing in degree")


def test_criterion_5_odd_graphs():
    details = []
    ok = True

    for k, budget in ((5, 120.0), (6, 120.0), (7, 600.0)):
        g = odd_graph(k)
        start = time.perf_counter()
        r = apply_heuristic(g, HeuristicParams(colors=k, seed=k))
        elapsed = time.perf_counter() - start
        good = r.success and elapsed <= budget
        ok &= good
        details.append(f"O_{k} ({g.n} vertices): success={r.success} in {elapsed:.1f}s")

    g3 = odd_graph(3)
    assert brute_force_chromatic_index(g3) == 4
    r3 = apply_heuristic(g3, HeuristicParams(colors=3, seed=1))
    ok &= not r3.success
    details.append(f"O_3 with 3 colors: success={r3.success} (chi'=4)")

    g4 = odd_graph(4)
    assert g4.n == 35 and g4.n % 2 == 1  # odd order: no perfect matching classes
    r4 = apply_heuristic(g4, HeuristicParams(colors=4, seed=1))
    ok &= not r4.success
    details.append(f"O_4 with 4 colors: success={r4.success} (odd order)")

    report(5, ok, "; ".join(details))


def _connected_graphs_up_to_8_edges():
    """All connected simple graphs with 1..8 edges, up to isomorphism."""
    graphs = [h for h in graph_atlas_g() if 1 <= h.number_of_edges() <= 8 and nx.is_connected(h)]
    trees8 = list(nx.nonisomorphic_trees(8))
    graphs += trees8 + list(nx.nonisomorphic_trees(9))
    # connected graphs on 8 vertices with 8 edges = trees on 8 plus one edge
    buckets = {}
    for t in trees8:
        for u, v in combinations(range(8), 2):
            if not t.has_edge(u, v):
                h = t.copy()
                h.add_edge(u, v)
                key = nx.weisfeiler_lehman_graph_hash(h)
                bucket = buckets.setdefault(key, [])
                if not any(nx.is_isomorphic(h, other) for other in bucket):
                    bucket.append(h)
                    graphs.append(h)
    return graphs


def _to_graph(h):
    h = nx.convert_node_labels_to_integers(h)
    return Graph(h.number_of_nodes(), sorted(tuple(sorted(e)) for e in h.edges()))


def test_criterion_6_oracle_equivalence_on_small_graphs():
    graphs = _connected_graphs_up_to_8_edges()
    class_one = class_two = 0
    failures = []
    for idx, h in enumerate(graphs):
        g = _to_graph(h)
        delta = g.max_degree()
        chi = brute_force_chromatic_index(g)
        if chi not in (delta, delta + 1):
            failures.append(f"graph {idx}: chi'={chi} outside Vizing bounds")
            continue
        if chi == delta:
            class_one += 1
            wins = 0
            for seed in range(20):
                r = apply_heuristic(g, HeuristicParams(colors=delta, seed=seed))
                wins += r.success
                if r.success and not check_edge_coloring(g, delta):
                    failures.append(f"graph {idx}: false positive")
            if wins < 19:  # >= 95% of 20 attempts
                failures.append(f"graph {idx}: only {wins}/20 successes at chi'=Delta")
        else:
            class_two += 1
            # D = Delta < chi': success is impossible and must never be claimed
            for seed in range(5):
                r = apply_heuristic(g, HeuristicParams(colors=delta, seed=seed))
                if r.success:
                    failures.append(f"graph {idx}: succeeded below chi'")
    detail = (
        f"{len(graphs)} graphs ({class_one} class one, {class_two} class two); "
        + (failures[:5] and str(failures[:5]) or "no violations")
    )
    report(6, not failures, detail)


def _random_connected_ish_graph(rng, max_n=12):
    n = rng.randrange(3, max_n + 1)
    possible = list(combinations(range(n), 2))
    k = rng.randrange(2, len(possible) + 1)
    return Graph(n, rng.sample(possible, k))


def test_criterion_7_property_suites():
    rng = random.Random(20240901)

    # incremental-vs-scratch consistency over 10^4 random recolorings
    recolors = 0
    while recolors < 10_000:
        g = _random_connected_ish_graph(rng)
        colors = max(2, g.max_degree())
        random_precolor(g, colors, rng)
        cd = ConflictDictionary(g, colors)
        edges = g.edges()
        for _ in range(200):
            u, v = rng.choice(edges)
            cd.color_edge(u, v, rng.randrange(colors))
            recolors += 1
            cd.check_consistency()

    # kempe_start non-increase and recoloring bound over 10^4 invocations
    starts = 0
    while starts < 10_000:
        g = _random_connected_ish_graph(rng)
        colors = max(2, g.max_degree())
        random_precolor(g, colors, rng)
        cd = ConflictDictionary(g, colors)
        while cd.total > 0 and starts < 10_000:
            before = cd.total
            steps = kempe_start(g, cd, colors, cd.sample_max_level(rng), rng)
            starts += 1
            assert cd.total <= before, "conflictivity increased"
            assert steps <= g.n, "chain exceeded n recolorings"
            assert None not in g.colors

    # seed determinism on a nontrivial instance
    from kempecolor.generators import random_regular_graph

    g1 = random_regular_graph(1000, 3, random.Random(5))
    g2 = random_regular_graph(1000, 3, random.Random(5))
    params = HeuristicParams(colors=3, seed=77)
    r1 = apply_heuristic(g1, params)
    r2 = apply_heuristic(g2, params)
    same = (
        r1.success == r2.success
        and r1.passes == r2.passes
        and [g1.edge_color(u, v) for u, v in g1.edges()]
        == [g2.edge_color(u, v) for u, v in g2.edges()]
    )
    assert same

    report(7, True, f"{recolors} recolorings consistent, {starts} chain starts "
                    "non-increasing and n-bounded, seeded runs identical")
