"""Conflict levels, the level -> vertex-set dictionary and Kempe chains.

The conflict level of a vertex is its degree minus the number of distinct
colors on its incident edges (0 means locally proper).  The dictionary
buckets every vertex with level >= 1 by its level and keeps the total
conflictivity (sum of all levels) cached, so the search loop gets O(1)
reads.  It also indexes each vertex's edges by color, one entry per color
present there, so a chain step finds the edge of a given color at a vertex
in O(1) expected time; it scans the vertex's edges only where that color
repeats.

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

    ``add(x)`` then ``remove(x)`` leaves it exactly as it was, so a level
    that goes up by one and straight back only moves its vertex to the end
    of its bucket; ``kempe_process`` relies on that for interior vertices.
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
    """Levels, buckets and a per-vertex color index for a totally colored graph.

    ``_at[v]`` maps each color present at v to the id of its edge when
    exactly one edge of v has it, and to -1 when two or more do, so v's
    level is ``len(adj[v]) - len(_at[v])``.  ``_ends[e]`` is the XOR of edge
    e's endpoints: one endpoint gives the other.  Both take O(m) memory,
    whatever the number of colors.
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
        at: list[dict[int, int]] = []
        for around in graph.adj:
            here: dict[int, int] = {}
            for i in around.values():
                c = edge_colors[i]
                here[c] = -1 if c in here else i
            at.append(here)
        self._at = at
        self._ends = [u ^ v for u, v in graph.edges()]
        level = [len(around) - len(here) for around, here in zip(graph.adj, at)]
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
        applies inline along a chain.  Each endpoint's change and index
        entries come from a scan of its other edges, not from the index.
        """
        if not (0 <= color < self.colors):
            raise GraphError(f"color {color} outside [0, {self.colors})")
        idx = self.graph.edge_index(u, v)
        colors = self.graph.colors
        old = colors[idx]
        if old == color:
            return 0
        colors[idx] = color
        for x in (u, v):
            others = [i for i in self.graph.adj[x].values() if i != idx]
            joined = [i for i in others if colors[i] == color]
            left = [i for i in others if colors[i] == old]
            here = self._at[x]
            here[color] = -1 if joined else idx
            if len(left) == 1:
                here[old] = left[0]
            elif not left:
                del here[old]
            delta = bool(joined) - bool(left)
            if delta:
                self._shift(x, delta)
        return delta

    def _shift(self, v: int, delta: int) -> None:
        """Add delta to v's level and move v to the end of its new bucket.

        After ``__init__`` this is the only writer of levels, buckets and
        the total.  With delta 0, v only moves to the end of its bucket.
        """
        level, buckets = self._level, self._buckets
        lvl = level[v]
        if lvl > 0:
            buckets[lvl].remove(v)
        if delta:
            lvl += delta
            level[v] = lvl
            self.total += delta
        if lvl > 0:
            buckets[lvl].add(v)

    def check_consistency(self) -> None:
        """Raise RuntimeError unless the cached state matches a recount.

        Levels are compared with the set-based ``conflict_level``, and the
        color index with one rebuilt edge by edge, so this shares no code
        with the incremental updates it checks.
        """
        graph, colors = self.graph, self.colors
        at: list[dict[int, int]] = [{} for _ in range(graph.n)]
        for i, ((u, v), c) in enumerate(zip(graph.edges(), graph.colors)):
            if c is None or not (0 <= c < colors):
                raise RuntimeError(f"edge ({u}, {v}) has untracked color {c!r}")
            for x in (u, v):
                at[x][c] = -1 if c in at[x] else i
        if self._at != at or self._ends != [u ^ v for u, v in graph.edges()]:
            raise RuntimeError("stale color index")
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


def _recolor_entries(
    here: dict[int, int], around: dict[int, int], colors, idx: int, old: int, new: int
) -> int:
    """Update one vertex's color index for edge ``idx`` going from ``old`` to ``new``.

    ``here`` and ``around`` are the vertex's index and adjacency.  Returns
    its level change.  The vertex's edges are scanned only when another
    edge keeps ``old`` (a twin), to find whether exactly one does.
    """
    if old == new:
        return 0
    gained = new in here
    here[new] = -1 if gained else idx
    if here[old] >= 0:
        del here[old]
        return gained
    rest = [i for i in around.values() if i != idx and colors[i] == old]
    here[old] = rest[0] if len(rest) == 1 else -1
    return gained - 1


def kempe_process(
    graph, cd: ConflictDictionary, start: int, node: int, new_color: int, rng: random.Random
) -> int:
    """Run the chain from edge {start, node} to termination.

    Each step recolors the edge into ``node`` to the carried color (first
    ``new_color``, then the color the previous recoloring displaced) and
    moves on to a uniform random neighbour of ``node``, other than the one
    it came from, whose edge has the carried color.  Returns the number of
    recolorings performed (at most n: every iteration consumes a vertex
    never seen before).

    The colors, levels and bucket order end as ``color_edge`` would leave
    them step by step.  ``node``'s index entry for the carried color gives
    the continuation: none, one edge, or -1, and only -1 scans ``node``'s
    edges, in insertion order, to draw among them with ``rng.choice``
    spelled out as ``getrandbits``.  Its entry for the old color says
    whether a twin, another edge of that color, stays.  Only the two ends
    change level.  An interior vertex hands the carried color on and takes
    the old one back, so its entries are set to their final values at once;
    without a twin, its level goes up by one and straight back, which only
    moves it to the end of its bucket.  ``start`` and the terminal ``node``
    get the general update, which scans edges only at a twin.  With
    ``new_color`` equal to the edge's color, every write is a no-op.
    """
    if not (0 <= new_color < cd.colors):
        raise GraphError(f"color {new_color} outside [0, {cd.colors})")
    idx = graph.edge_index(start, node)
    adj = graph.adj
    colors = graph.colors
    level, at, ends = cd._level, cd._at, cd._ends
    getrandbits = rng.getrandbits
    visited = {start}
    carry = new_color
    old = colors[idx]
    # start is settled now, before the chain can come back to it
    delta = _recolor_entries(at[start], adj[start], colors, idx, old, carry)
    if delta:
        cd._shift(start, delta)
    steps = 0
    while True:
        here = at[node]
        e = here.get(carry)
        # e == idx only when old == carry: then idx is node's sole such edge
        if e is None or e == idx:
            nxt = None
        else:
            if e >= 0:
                out = e
                while getrandbits(1):
                    pass
            else:
                many = [i for i in adj[node].values() if i != idx and colors[i] == carry]
                n = len(many)
                bits = n.bit_length()
                r = getrandbits(bits)
                while r >= n:
                    r = getrandbits(bits)
                out = many[r]
            nxt = ends[out] ^ node
        steps += 1
        colors[idx] = carry
        # a level can only drop at a chain end: a continuation keeps the carried color
        if nxt is None or node in visited:
            delta = _recolor_entries(here, adj[node], colors, idx, old, carry)
            if delta:
                cd._shift(node, delta)
            return steps
        # entries after the next step gives `out` the old color
        # (both are no-ops when old == carry: e and here[old] are then -1)
        if e >= 0:
            here[carry] = idx
        if here[old] >= 0:
            here[old] = out
            if level[node] > 0:
                cd._shift(node, 0)
        visited.add(node)
        node = nxt
        carry, old = old, carry
        idx = out


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
