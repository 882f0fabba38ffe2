"""Kempe-chain conflict displacement.

A chain starts at a conflicting vertex, walks along edges whose colors
alternate between the carried old color and the chosen new color, and
recolors each traversed edge.  It stops when a recoloring lowers the
conflict level of the vertex just reached, when no continuation edge
exists, or when the chain revisits a vertex (which bounds the number of
recolorings by n and catches two-colored cycles).
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .conflicts import ConflictDictionary
from .graph import GraphError


class KempeStepResult(NamedTuple):
    last_vertex: int
    next_vertex: int | None
    carry_color: int | None


def kempe_next(
    graph, cd: ConflictDictionary, last: int, node: int, new_color: int, rng: random.Random
) -> tuple[int, int, int | None]:
    """Recolor edge {last, node} to new_color and pick the continuation.

    The continuation is a uniformly random neighbor of node (other than
    last) whose edge already carries new_color, or None if there is none.
    Returns (conflict variation at node, old edge color, continuation).
    """
    adj = graph._adj[node]
    colors = graph._colors
    candidates = [w for w, idx in adj.items() if w != last and colors[idx] == new_color]
    next_node = rng.choice(candidates) if candidates else None
    old_color = graph.edge_color(last, node)
    variation = cd.color_edge(last, node, new_color)
    return variation, old_color, next_node


def kempe_step(
    graph, cd: ConflictDictionary, last: int, node: int, new_color: int, rng: random.Random
) -> KempeStepResult:
    """One chain advance: terminal when the conflict at node dropped or the chain ends.

    The validated step-by-step form of one iteration of ``kempe_process``.
    """
    variation, old_color, next_node = kempe_next(graph, cd, last, node, new_color, rng)
    if variation < 0 or next_node is None:
        return KempeStepResult(node, None, None)
    return KempeStepResult(node, next_node, old_color)


def kempe_process(
    graph, cd: ConflictDictionary, start: int, node: int, new_color: int, rng: random.Random
) -> int:
    """Run the chain from edge {start, node} to termination.

    Returns the number of recolorings performed (at most n: every
    iteration consumes a vertex never seen before).  Each step does what
    ``kempe_step`` does, in the same order and with the same RNG draws,
    but walks edge ids directly instead of re-validating every edge.
    """
    if not (0 <= new_color < cd.colors):
        raise GraphError(f"color {new_color} outside [0, {cd.colors})")
    idx = graph.edge_index(start, node)
    adj = graph._adj
    colors = graph._colors
    recolor = cd._recolor
    visited: set[int] = set()
    last = start
    carry = new_color
    steps = 0
    while True:
        visited.add(last)
        around = adj[node]
        candidates = [w for w, i in around.items() if w != last and colors[i] == carry]
        next_node = rng.choice(candidates) if candidates else None
        old_color = colors[idx]
        variation = recolor(last, node, idx, carry)
        steps += 1
        if variation < 0 or next_node is None or node in visited:
            return steps
        last, node, carry = node, next_node, old_color
        idx = around[node]


def kempe_start(
    graph, cd: ConflictDictionary, num_colors: int, v: int, rng: random.Random
) -> int:
    """Launch one chain from conflicting vertex v; no-op if v is unconflicting.

    Scans v's incident edges: the first sighting of a color marks it used,
    a second sighting marks that neighbor as reachable through a
    repeated-color edge.  One such neighbor is chosen uniformly, and the
    new chain color is drawn uniformly from the colors absent at v.
    Returns the number of recolorings performed.
    """
    graph._check_vertex(v)
    colors = graph._colors
    seen: set[int] = set()
    repeated: list[int] = []
    for w, idx in graph._adj[v].items():
        c = colors[idx]
        if c in seen:
            repeated.append(w)
        else:
            seen.add(c)
    if not repeated:
        return 0
    available = [c for c in range(num_colors) if c not in seen]
    if not available:
        raise GraphError(
            f"vertex {v} has degree {graph.degree(v)} > {num_colors} colors: no free color"
        )
    node = rng.choice(repeated)
    new_color = rng.choice(available)
    return kempe_process(graph, cd, v, node, new_color, rng)
