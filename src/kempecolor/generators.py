"""Test-graph constructors: random regular graphs and odd graphs."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from .graph import MAX_VERTICES, Graph, GraphError


def random_regular_graph(n: int, d: int, rng: random.Random) -> Graph:
    """Random simple d-regular graph on n vertices via stub pairing.

    Each vertex gets d stubs; a shuffled pass pairs them up, discarding
    loops and parallel edges, and the leftover stubs are re-shuffled and
    paired again.  When the leftovers cannot be completed (every pair
    among them is a loop or an existing edge), the whole attempt restarts.
    At most 10*n attempts are made, and n may not exceed ``MAX_VERTICES``.
    """
    if d < 0 or n < 0:
        raise GraphError("n and d must be non-negative")
    if n > MAX_VERTICES:
        raise GraphError(f"random regular graph has {n} vertices, more than the cap of {MAX_VERTICES}")
    if (n * d) % 2 != 0:
        raise GraphError(f"n*d must be even, got n={n}, d={d}")
    if d >= n and not (n == 0 and d == 0):
        raise GraphError(f"degree {d} requires more than {n} vertices")
    if d == 0:
        return Graph(n, [])

    for _ in range(10 * n):
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            graph = Graph(n, sorted(edges))
            _check_regular(graph, d)
            return graph
    raise GraphError(f"could not realize a simple {d}-regular graph on {n} vertices")


def _pairing_attempt(n: int, d: int, rng: random.Random) -> set | None:
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        rng.shuffle(stubs)
        leftover = []
        it = iter(stubs)
        for u, v in zip(it, it):
            if u > v:
                u, v = v, u
            if u != v and (u, v) not in edges:
                edges.add((u, v))
            else:
                leftover.extend((u, v))
        if len(leftover) == len(stubs):
            # no pairing progress; restart unless some order could still work
            if not _completable(edges, leftover):
                return None
        stubs = leftover
    return edges


def _completable(edges: set, stubs: list[int]) -> bool:
    for i, u in enumerate(stubs):
        for v in stubs[:i]:
            a, b = min(u, v), max(u, v)
            if a != b and (a, b) not in edges:
                return True
    return False


def odd_graph(k: int) -> Graph:
    """Graph on the (k-1)-subsets of a (2k-1)-set, adjacency = disjointness.

    k-regular on C(2k-1, k-1) vertices; vertex ids follow colexicographic
    subset order, so the construction is reproducible everywhere.  A k
    whose vertex count exceeds ``MAX_VERTICES`` is rejected before any
    subset is enumerated.
    """
    if k < 2:
        raise GraphError(f"odd graph needs k >= 2, got {k}")
    n = comb(2 * k - 1, k - 1)
    if n > MAX_VERTICES:
        raise GraphError(f"odd graph O_{k} has {n} vertices, more than the cap of {MAX_VERTICES}")
    subsets = sorted(combinations(range(2 * k - 1), k - 1), key=lambda s: s[::-1])
    masks = [sum(1 << e for e in s) for s in subsets]
    ids = {mask: i for i, mask in enumerate(masks)}
    full = (1 << (2 * k - 1)) - 1
    edges = []
    for i, mask in enumerate(masks):
        # the neighbours are the complement (k elements) minus one element
        comp = full ^ mask
        for e in range(2 * k - 1):
            bit = 1 << e
            if comp & bit:
                j = ids[comp ^ bit]
                if i < j:
                    edges.append((i, j))
    edges.sort()
    graph = Graph(n, edges)
    _check_regular(graph, k)
    return graph


def _check_regular(graph: Graph, d: int) -> None:
    # degrees summing to n*d with none above d are all exactly d
    if 2 * graph.m != graph.n * d or graph.max_degree() > d:
        raise GraphError(f"generated graph is not {d}-regular")
