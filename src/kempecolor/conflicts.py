"""Conflict levels, the level -> vertex-set dictionary and Kempe chains.

The conflict level of a vertex is its degree minus the number of distinct
colors on its incident edges (0 means locally proper).  The dictionary
buckets every vertex with level >= 1 by its level and keeps the total
conflictivity (sum of all levels) cached, so the search loop gets O(1)
reads, and a recoloring updates it from a scan of its endpoints' edges.

A Kempe chain starts at a conflicting vertex, walks along edges whose
colors alternate between the carried old color and the chosen new color,
and recolors each traversed edge.  It stops when a recoloring lowers the
conflict level of the vertex just reached, when no continuation edge
exists, or when the chain revisits a vertex (which bounds the number of
recolorings by n and catches two-colored cycles).
"""

from __future__ import annotations

import random

from .graph import Graph, GraphError, UncoloredEdgeError


def conflict_level(graph: Graph, v: int) -> int:
    """degree(v) minus the number of distinct incident colors; 0 if isolated."""
    deg = graph.degree(v)
    if deg == 0:
        return 0
    return deg - graph.distinct_incident_colors(v)


class _RandomSet:
    """Set with O(1) insert/remove and uniform member sampling.

    ``add(x)`` then ``remove(x)`` leaves it exactly as it was (x is appended,
    then popped from the end); ``kempe_process`` relies on that to skip a
    chain vertex's intermediate bucket moves.
    """

    __slots__ = ("_items", "_pos")

    def __init__(self):
        self._items: list[int] = []
        self._pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def add(self, x: int) -> None:
        if x not in self._pos:
            self._pos[x] = len(self._items)
            self._items.append(x)

    def remove(self, x: int) -> None:
        i = self._pos.pop(x)
        last = self._items.pop()
        if i < len(self._items):
            self._items[i] = last
            self._pos[last] = i

    def sample(self, rng: random.Random) -> int:
        return self._items[rng.randrange(len(self._items))]


class ConflictDictionary:
    """Levels and buckets for a totally colored graph.

    Nothing is stored per color: a recoloring changes an endpoint's level
    by (new color among its other edges) - (old color among its other
    edges), found by scanning that endpoint's edges.
    """

    def __init__(self, graph: Graph, colors: int):
        self.graph = graph
        self.colors = colors
        edge_colors = graph.colors
        for (u, v), c in zip(graph.edges(), edge_colors):
            if c is None:
                raise UncoloredEdgeError(f"edge ({u}, {v}) is uncolored")
            # kempe_start's free-color rank walk assumes colors in [0, D)
            if not (0 <= c < colors):
                raise GraphError(f"edge ({u}, {v}) has color {c} outside [0, {colors})")
        level = [
            len(around) - len({edge_colors[i] for i in around.values()})
            for around in graph.adj
        ]
        self._level = level
        # a level never exceeds degree - 1, so every bucket exists up front
        self._buckets = {lvl: _RandomSet() for lvl in range(1, graph.max_degree())}
        self.total = 0
        for v, lvl in enumerate(level):
            if lvl > 0:
                self._buckets[lvl].add(v)
                self.total += lvl

    def level(self, v: int) -> int:
        return self._level[v]

    def bucket_members(self, level: int) -> set[int]:
        b = self._buckets.get(level)
        return set(b) if b is not None else set()

    def max_level(self) -> int:
        """Largest level with a nonempty bucket; error if none."""
        best = 0
        for lvl, b in self._buckets.items():
            if len(b) > 0 and lvl > best:
                best = lvl
        if best == 0:
            raise GraphError("no conflicting vertices (check total > 0 first)")
        return best

    def sample_max_level(self, rng: random.Random) -> int:
        return self._buckets[self.max_level()].sample(rng)

    def color_edge(self, u: int, v: int, color: int) -> int:
        """Recolor edge {u, v} and update both endpoints.

        Returns the conflict-level change at v, the second endpoint.  The
        validated single-edge form of the update that ``kempe_process``
        applies inline along a chain.
        """
        if not (0 <= color < self.colors):
            raise GraphError(f"color {color} outside [0, {self.colors})")
        idx = self.graph.edge_index(u, v)
        colors = self.graph.colors
        old = colors[idx]
        if old == color:
            return 0
        colors[idx] = color
        level, buckets = self._level, self._buckets
        for x in (u, v):
            others = [colors[i] for i in self.graph.adj[x].values() if i != idx]
            delta = (color in others) - (old in others)
            if delta:
                lvl = level[x]
                if lvl > 0:
                    buckets[lvl].remove(x)
                lvl += delta
                if lvl > 0:
                    buckets[lvl].add(x)
                level[x] = lvl
                self.total += delta
        return delta

    def check_consistency(self) -> None:
        """Raise RuntimeError unless the cached state matches a recount.

        Levels are compared with the set-based ``conflict_level``, so this
        shares no code with the incremental updates it checks.
        """
        graph, colors = self.graph, self.colors
        for (u, v), c in zip(graph.edges(), graph.colors):
            if c is None or not (0 <= c < colors):
                raise RuntimeError(f"edge ({u}, {v}) has untracked color {c!r}")
        levels = [conflict_level(graph, v) for v in range(graph.n)]
        if self._level != levels:
            raise RuntimeError("stale conflict levels")
        if self.total != sum(levels):
            raise RuntimeError("stale total")
        nonempty = {lvl for lvl, b in self._buckets.items() if len(b) > 0}
        for lvl in set(levels) | nonempty:
            want = {v for v, x in enumerate(levels) if x == lvl} if lvl > 0 else set()
            if self.bucket_members(lvl) != want:
                raise RuntimeError(f"bucket {lvl} out of sync")


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
    same net bucket operations, but updates the levels and buckets inline.
    The scan of ``node``'s edges that finds the continuation also looks for
    a twin, another edge of ``node`` with the old color, and that gives
    both of ``node``'s level changes: (a continuation exists) - twin now,
    and twin - 1 at the next step, as ``last``, when it gives up the
    carried color (its previous edge keeps it) and takes the old one back.
    Only ``start`` needs a scan of its own.  The draw is ``rng.choice``
    spelled out with ``getrandbits``.  ``node``'s bucket move waits for
    the next step, which updates it again as ``last``: no other bucket
    operation runs in between, and a ``_RandomSet`` ``add`` then
    ``remove`` of one member is the identity, so levels a -> b -> c need
    only ``remove`` from a and ``add`` to c, even when a == c (which moves
    it to the end of its bucket).
    """
    if not (0 <= new_color < cd.colors):
        raise GraphError(f"color {new_color} outside [0, {cd.colors})")
    idx = graph.edge_index(start, node)
    adj = graph.adj
    colors = graph.colors
    level, buckets = cd._level, cd._buckets
    getrandbits = rng.getrandbits
    visited: set[int] = set()
    last = start
    carry = new_color
    old = colors[idx]
    others = [colors[i] for i in adj[start].values() if i != idx]
    # last's level change when its edge to node is recolored
    delta = (carry in others) - (old in others)
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
        twin = False
        for w, i in around.items():
            if w != last:
                c = colors[i]
                if c == carry:
                    if nxt is None:
                        nxt = w
                    elif many is None:
                        many = [nxt, w]
                    else:
                        many.append(w)
                elif c == old:
                    twin = True
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
        steps += 1
        variation = 0
        node_home = level[node]
        # old == carry only on a direct call, and then at every step
        if old != carry:
            colors[idx] = carry
            if delta:
                level[last] += delta
                total += delta
                moved = True
            variation = (nxt is not None) - twin
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
        last, node = node, nxt
        carry, old = old, carry
        delta = twin - 1
        home, moved = node_home, variation != 0
        idx = around[node]


def kempe_start(
    graph, cd: ConflictDictionary, num_colors: int, v: int, rng: random.Random
) -> int:
    """Launch one chain from conflicting vertex v; no-op if v is unconflicting.

    Scans v's incident edges: the first sighting of a color marks it used,
    a second sighting marks that neighbor as reachable through a
    repeated-color edge.  One such neighbor is chosen uniformly, and the
    new chain color is drawn uniformly from the colors absent at v.  The
    colors at v must lie in [0, num_colors), as the dictionary's do.
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
    free = num_colors - len(seen)
    if free <= 0:
        raise GraphError(
            f"vertex {v} has degree {deg} > {num_colors} colors: no free color"
        )
    node = rng.choice(repeated)
    # rng.choice over the ascending free colors, found by rank
    new_color = rng.randrange(free)
    for c in sorted(seen):
        if c > new_color:
            break
        new_color += 1
    return kempe_process(graph, cd, v, node, new_color, rng)
