"""Initial edge colorings: greedy (default) or uniform random."""

from __future__ import annotations

import random

from .conflicts import _nth_free, _randbelow
from .graph import Graph


def greedy_precolor(graph: Graph, num_colors: int, rng: random.Random) -> None:
    """Color every edge, preferring colors unused at both endpoints.

    Edges are visited in ascending (min, max) order.  When every color
    already appears at an endpoint, a uniform random color is forced.
    With edges and fewer than one color it raises ValueError before any
    write or draw; otherwise every edge gets a color and none is read.

    Each vertex keeps its used colors as an int bitmask.  The free color
    is drawn as ``rng.choice`` over the ascending free colors would draw
    it (one ``randrange`` of their count), then found by ``_nth_free``'s
    walk past the used colors at or below it.  A bitmask is as wide as the
    largest color it holds, not as the degree, so with D much larger than
    the maximum degree memory grows as n * D bits (ROADMAP item 11).
    Each ``randrange(k)`` is the ``getrandbits`` loop that
    ``Random._randbelow`` runs, called directly, so the draws are the same.
    """
    if graph.colors and num_colors < 1:
        raise ValueError(f"cannot color edges with {num_colors} colors")
    adj = graph.adj
    colors = graph.colors
    getrandbits = rng.getrandbits
    used = [0] * graph.n
    edges = graph.edges()
    edges.sort()
    for u, v in edges:
        taken = used[u] | used[v]
        free = num_colors - taken.bit_count()
        c = _randbelow(getrandbits, free if free > 0 else num_colors)
        if free > 0:
            c = _nth_free(taken, c)
        colors[adj[u][v]] = c
        bit = 1 << c
        used[u] |= bit
        used[v] |= bit


def random_precolor(graph: Graph, num_colors: int, rng: random.Random) -> None:
    """Assign every edge an independent uniform color, in edge-id order.

    Each color is ``_randbelow``'s draw, the one ``rng.randrange(num_colors)``
    would make.
    """
    if graph.colors and num_colors < 1:
        raise ValueError(f"cannot color edges with {num_colors} colors")
    getrandbits = rng.getrandbits
    graph.colors[:] = [_randbelow(getrandbits, num_colors) for _ in graph.colors]
