"""Initial edge colorings: greedy (default) or uniform random."""

from __future__ import annotations

import random

from .graph import Graph


def greedy_precolor(graph: Graph, num_colors: int, rng: random.Random) -> None:
    """Color every edge, preferring colors unused at both endpoints.

    Edges are visited in ascending (min, max) order.  When every color
    already appears at an endpoint, a uniform random color is forced.
    All previous colors are cleared first.
    """
    graph.clear_colors()
    adj = graph.adj
    colors = graph.colors
    all_colors = range(num_colors)
    for u, v in sorted(graph.edges()):
        used = {colors[idx] for idx in adj[u].values()}
        used.update(colors[idx] for idx in adj[v].values())
        available = [c for c in all_colors if c not in used]
        if available:
            colors[adj[u][v]] = rng.choice(available)
        else:
            colors[adj[u][v]] = rng.randrange(num_colors)


def random_precolor(graph: Graph, num_colors: int, rng: random.Random) -> None:
    """Assign every edge an independent uniform color, in edge-id order."""
    graph.colors[:] = [rng.randrange(num_colors) for _ in graph.colors]
