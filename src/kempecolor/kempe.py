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

from .conflicts import ConflictDictionary
from .graph import GraphError


def kempe_process(
    graph, cd: ConflictDictionary, start: int, node: int, new_color: int, rng: random.Random
) -> int:
    """Run the chain from edge {start, node} to termination.

    Each step recolors edge {last, node} to the carried color (first
    ``new_color``, then the color the previous recoloring displaced) and
    moves on to a uniform random neighbour of ``node``, other than
    ``last``, whose edge has the carried color.  Returns the number of
    recolorings performed (at most n: every iteration consumes a vertex
    never seen before).

    A recoloring does what ``ConflictDictionary.color_edge`` does, with the
    same net bucket operations, but updates the count table, levels and
    buckets inline.  The draw is ``rng.choice`` spelled out with
    ``getrandbits``.  ``node``'s bucket move waits for the next step, which
    updates it again as ``last``: no other bucket operation runs in
    between, and a ``_RandomSet`` ``add`` then ``remove`` of one member is
    the identity, so levels a -> b -> c need only ``remove`` from a and
    ``add`` to c, even when a == c (which moves it to the end of its
    bucket).
    """
    if not (0 <= new_color < cd.colors):
        raise GraphError(f"color {new_color} outside [0, {cd.colors})")
    idx = graph.edge_index(start, node)
    adj = graph.adj
    colors = graph.colors
    cnt, level, buckets = cd._cnt, cd._level, cd._buckets
    width = cd.colors
    getrandbits = rng.getrandbits
    visited: set[int] = set()
    last = start
    carry = new_color
    # last sits in bucket `home`; `moved` says its level changed since then
    home = level[start]
    moved = False
    total = 0
    steps = 0
    while True:
        visited.add(last)
        around = adj[node]
        # the continuation: a list is built only for a second candidate
        nxt = many = None
        for w, i in around.items():
            if w != last and colors[i] == carry:
                if nxt is None:
                    nxt = w
                elif many is None:
                    many = [nxt, w]
                else:
                    many.append(w)
        if many is not None:
            n = len(many)
            bits = n.bit_length()
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            nxt = many[r]
        elif nxt is not None:
            while getrandbits(1):
                pass
        old = colors[idx]
        steps += 1
        variation = 0
        node_home = level[node]
        if old != carry:
            colors[idx] = carry
            # k is an endpoint's slot for the new color, k + shift for the
            # old one; read before the move: the new color adds a repeat if
            # already present, the old one loses a repeat if it was repeated
            shift = old - carry
            k = last * width + carry
            delta = (cnt[k] > 0) - (cnt[k + shift] > 1)
            cnt[k] += 1
            cnt[k + shift] -= 1
            if delta:
                level[last] += delta
                total += delta
                moved = True
            k = node * width + carry
            variation = (cnt[k] > 0) - (cnt[k + shift] > 1)
            cnt[k] += 1
            cnt[k + shift] -= 1
            if variation:
                level[node] = node_home + variation
                total += variation
        if moved:
            if home > 0:
                buckets[home].remove(last)
            lvl = level[last]
            if lvl > 0:
                buckets[lvl].add(last)
        if variation < 0 or nxt is None or node in visited:
            if variation:
                if node_home > 0:
                    buckets[node_home].remove(node)
                lvl = node_home + variation
                if lvl > 0:
                    buckets[lvl].add(node)
            cd.total += total
            return steps
        last, node, carry = node, nxt, old
        home, moved = node_home, variation != 0
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
    deg = graph.degree(v)  # raises GraphError unless v is a vertex
    colors = graph.colors
    seen: set[int] = set()
    repeated: list[int] = []
    for w, idx in graph.adj[v].items():
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
            f"vertex {v} has degree {deg} > {num_colors} colors: no free color"
        )
    node = rng.choice(repeated)
    new_color = rng.choice(available)
    return kempe_process(graph, cd, v, node, new_color, rng)
