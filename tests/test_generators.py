import random
from itertools import combinations

import networkx as nx
import pytest

from kempecolor import Graph, GraphError, odd_graph, random_regular_graph


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_k4_is_forced():
    g = random_regular_graph(4, 3, random.Random(0))
    assert sorted(g.edges()) == list(combinations(range(4), 2))


def test_cubic_on_ten_vertices_invariants():
    for seed in range(100):
        g = random_regular_graph(10, 3, random.Random(seed))
        assert g.n == 10
        assert g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))
        # simplicity is structural: Graph construction rejects loops/parallels


def test_parity_error():
    with pytest.raises(GraphError, match="even"):
        random_regular_graph(5, 3, random.Random(0))


def test_degree_too_large():
    with pytest.raises(GraphError):
        random_regular_graph(4, 4, random.Random(0))


def test_zero_degree():
    g = random_regular_graph(5, 0, random.Random(0))
    assert g.m == 0


def test_higher_degrees_realizable():
    for d in (7, 11, 15):
        g = random_regular_graph(40, d, random.Random(d))
        assert all(g.degree(v) == d for v in range(40))


def test_sampler_varies_with_seed():
    a = random_regular_graph(20, 3, random.Random(1))
    b = random_regular_graph(20, 3, random.Random(2))
    assert sorted(a.edges()) != sorted(b.edges())


def test_sampler_deterministic_for_seed():
    a = random_regular_graph(20, 3, random.Random(9))
    b = random_regular_graph(20, 3, random.Random(9))
    assert sorted(a.edges()) == sorted(b.edges())


def test_odd_graph_k2_is_triangle():
    g = odd_graph(2)
    assert g.n == 3
    assert g.m == 3
    assert all(g.degree(v) == 2 for v in range(3))


def test_odd_graph_k3_is_petersen():
    g = odd_graph(3)
    assert g.n == 10
    assert g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    h = to_networkx(g)
    assert nx.girth(h) == 5
    assert nx.is_isomorphic(h, nx.petersen_graph())


def test_odd_graph_k4():
    g = odd_graph(4)
    assert g.n == 35
    assert all(g.degree(v) == 4 for v in range(35))


def test_odd_graph_rejects_small_k():
    with pytest.raises(GraphError):
        odd_graph(1)


def all_pairs_odd_graph_edges(k):
    """Reference construction: test every vertex pair for disjointness."""
    subsets = sorted(combinations(range(2 * k - 1), k - 1), key=lambda s: s[::-1])
    masks = [sum(1 << e for e in s) for s in subsets]
    return [
        (i, j)
        for i, j in combinations(range(len(masks)), 2)
        if masks[i] & masks[j] == 0
    ]


@pytest.mark.parametrize("k", range(2, 9))
def test_odd_graph_matches_all_pairs_reference(k):
    # same edge list in the same order, so edge ids agree too
    assert odd_graph(k).edges() == all_pairs_odd_graph_edges(k)


def test_odd_graph_cap_is_inclusive(monkeypatch):
    import kempecolor.generators as gen

    monkeypatch.setattr(gen, "MAX_VERTICES", 35)  # O_4 has C(7, 3) = 35 vertices
    assert odd_graph(4).n == 35
    monkeypatch.setattr(gen, "MAX_VERTICES", 34)
    with pytest.raises(GraphError, match="O_4 has 35 vertices, more than the cap of 34"):
        odd_graph(4)


def test_regular_edge_cap_is_inclusive(monkeypatch):
    import kempecolor.generators as gen

    monkeypatch.setattr(gen, "MAX_EDGES", 15)  # a cubic graph on 10 vertices has 15 edges
    assert random_regular_graph(10, 3, random.Random(0)).m == 15
    with pytest.raises(GraphError, match="18 edges, more than the cap of 15"):
        random_regular_graph(12, 3, random.Random(0))


def test_regular_edge_cap_checked_before_any_stub(monkeypatch):
    # n = 10^6 is within the vertex cap, but d = 999,998 would pair 10^12 stubs
    import kempecolor.generators as gen

    def no_pairing(*args):
        raise AssertionError("stubs paired for an over-cap graph")

    monkeypatch.setattr(gen, "_pairing_attempt", no_pairing)
    with pytest.raises(GraphError, match="more than the cap of 10000000"):
        random_regular_graph(10**6, 999_998, random.Random(0))


def test_odd_graph_cap_checked_before_enumerating(monkeypatch):
    import kempecolor.generators as gen

    def no_subsets(*args):
        raise AssertionError("subsets enumerated for an over-cap k")

    monkeypatch.setattr(gen, "combinations", no_subsets)
    with pytest.raises(GraphError, match="cap of 1000000"):
        odd_graph(12)  # C(23, 11) = 1,352,078 vertices
    with pytest.raises(GraphError, match="cap of 1000000"):
        odd_graph(40)


def test_odd_graph_vertex_order_is_stable():
    # colexicographic ids: first vertices of O_3 pair up the smallest subsets
    g1 = odd_graph(3)
    g2 = odd_graph(3)
    assert g1.edges() == g2.edges()


def test_regularity_check_holds_under_optimize(run_optimized):
    # a pairing that leaves vertices 2 and 3 bare must raise, not return an
    # irregular graph, even when python -O strips asserts
    script = (
        "import random\n"
        "import kempecolor.generators as gen\n"
        "gen._pairing_attempt = lambda n, d, rng: {(0, 1)}\n"
        "try:\n"
        "    g = gen.random_regular_graph(4, 1, random.Random(0))\n"
        "except gen.GraphError as exc:\n"
        "    print('raised:', exc)\n"
        "else:\n"
        "    print('returned:', g.edges())\n"
    )
    assert run_optimized(script) == "raised: generated graph is not 1-regular\n"


def test_regularity_check_rejects_degree_above_d(monkeypatch):
    # the sum of degrees is right (2 edges, n*d = 4) but vertex 0 has degree 2
    import kempecolor.generators as gen

    monkeypatch.setattr(gen, "_pairing_attempt", lambda n, d, rng: {(0, 1), (0, 2)})
    with pytest.raises(GraphError, match="not 1-regular"):
        random_regular_graph(4, 1, random.Random(0))
