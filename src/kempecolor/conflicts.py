"""Conflict levels, the level -> vertex-set dictionary and Kempe chains.

The conflict level of a vertex is its degree minus the number of distinct
colors on its incident edges (0 means locally proper).  The dictionary
buckets every vertex with level >= 1 by its level and keeps the total
conflictivity (sum of all levels) cached, so the search loop gets O(1)
reads.  It also indexes each vertex's edges by color, one slot per (vertex,
color) pair in a flat list, so a chain step finds the edge of a given
color at a vertex with one list read; it scans the vertex's edges only
where that color repeats.  When that list would outgrow a dict per
vertex, the same slots live in a dict that holds only the filled ones.

A Kempe chain starts at a conflicting vertex, walks along edges whose
colors alternate between the carried old color and the chosen new color,
and recolors each traversed edge.  It stops when a recoloring lowers the
conflict level of the vertex just reached, when no continuation edge
exists, or when the chain revisits a vertex (which bounds the number of
recolorings by n and catches two-colored cycles).  Only the start vertex
and the vertices with three or more edges of the chain's two colors can
be revisited first, so only those are remembered.

Every random draw is the ``getrandbits`` rejection loop that CPython's
``Random._randbelow`` runs for ``randrange`` and ``choice``, written out
so that seeded runs draw exactly what those methods would.  A chain step
with one candidate still makes ``choice``'s draw over one item, which
never steers the chain; a chain owes those draws and makes them in bulk
(``_skip_single_draws``) before its next other draw and when it ends.
"""

from __future__ import annotations

import random

from .graph import Graph, GraphError, UncoloredEdgeError


def conflict_level(graph: Graph, v: int) -> int:
    """degree(v) minus the number of distinct incident colors."""
    incident = graph.incident_colors(v)
    return len(incident) - len(set(incident))


def _randbelow(getrandbits, n: int) -> int:
    """``Random.randrange(n)`` for n > 0, with the same ``getrandbits`` calls."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


# bit 31 of each of 1024 32-bit words: one getrandbits(1) is a word's top bit
_TOPS = int.from_bytes(b"\0\0\0\x80" * 1024, "little")


def _skip_single_draws(getrandbits, r: int) -> None:
    """Make the draws of r ``randrange(1)`` calls: r ``getrandbits(1)`` loops,
    each of which stops at the first 32-bit word whose top bit is clear.

    ``getrandbits(32 * k)`` returns the next k words, first word lowest;
    with k <= r, every one is a word the loops would take.
    """
    while r >= 8:
        k = min(r, 1024)
        r -= k - (getrandbits(32 * k) & _TOPS).bit_count()
    for _ in range(r):
        while getrandbits(1):
            pass


def _nth_free(taken: int, r: int) -> int:
    """The r-th color, counting from 0, whose bit is clear in the bitmask ``taken``."""
    # each taken color at or below the candidate shifts it up by one
    while taken:
        low = taken & -taken
        if low.bit_length() > r + 1:
            break
        r += 1
        taken ^= low
    return r


class _SparseIndex(dict):
    """The color index as a dict of its filled slots; an empty slot reads None."""

    __slots__ = ()

    def __missing__(self, key: int) -> None:
        return None


def _new_index(graph: Graph, colors: int) -> list | _SparseIndex:
    """An empty color index: a flat list while it has at most 32 slots per
    vertex plus 4 per edge, about what a dict per vertex would take."""
    slots = graph.n * colors
    if slots <= 32 * graph.n + 4 * graph.m:
        return [None] * slots
    return _SparseIndex()


def _clear(at: list | _SparseIndex, slot: int) -> None:
    """Empty one slot of the color index."""
    if at.__class__ is list:
        at[slot] = None
    else:
        del at[slot]


class ConflictDictionary:
    """Levels, buckets and a color index for a totally colored graph.

    Slot ``v * colors + c`` of the color index ``_at`` holds the id of
    v's edge of color c when exactly one edge of v has it, -1 when two or
    more do, and None when none does, so v's level is its degree minus its
    filled slots.  The index is a flat list while it has at most 32 slots
    per vertex plus 4 per edge, about the size of a small dict per vertex
    (on a regular graph, any D up to 2Δ + 32), and otherwise a dict of the
    filled slots, so memory stays O(n + m) whatever the number of colors.
    ``_ends[e]`` is the XOR of edge e's endpoints: one endpoint gives the
    other.

    ``_buckets`` is a list indexed by level whose slot 0 stays empty:
    ``_buckets[lvl]`` lists the vertices at level lvl >= 1, and ``_pos[v]``
    is v's place in its list.  A vertex leaves its list by taking the last
    member into its slot and joins at the end, so sampling a bucket is one
    list read.
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
        self._at = at = _new_index(graph, colors)
        self._ends = [u ^ v for u, v in graph.edges()]
        self._level = [0] * graph.n
        # a level never exceeds degree - 1, so every bucket exists up front
        self._buckets: list[list[int]] = [[] for _ in range(graph.max_degree())]
        self._pos = [0] * graph.n
        self.total = 0
        for v, around in enumerate(graph.adj):
            b = v * colors
            distinct = 0
            for i in around.values():
                k = b + edge_colors[i]
                if at[k] is None:
                    at[k] = i
                    distinct += 1
                else:
                    at[k] = -1
            if distinct < len(around):
                self._shift(v, len(around) - distinct)

    def max_level(self) -> int:
        """Largest level with a nonempty bucket; error if none."""
        buckets = self._buckets
        for lvl in range(len(buckets) - 1, 0, -1):
            if buckets[lvl]:
                return lvl
        raise GraphError("no conflicting vertices (check total > 0 first)")

    def sample_max_level(self, rng: random.Random) -> int:
        """A uniform member of the highest nonempty bucket; error if none.

        Draws what ``rng.randrange`` over the bucket's size would draw.
        """
        items = self._buckets[self.max_level()]
        return items[_randbelow(rng.getrandbits, len(items))]

    def color_edge(self, u: int, v: int, color: int) -> int:
        """Recolor edge {u, v} and update both endpoints.

        Returns the conflict-level change at v, the second endpoint.  The
        validated single-edge form of a chain step: each endpoint gets the
        ``_recolor`` update that a Kempe chain applies at its two ends.
        """
        if not (0 <= color < self.colors):
            raise GraphError(f"color {color} outside [0, {self.colors})")
        idx = self.graph.edge_index(u, v)
        colors = self.graph.colors
        old = colors[idx]
        if old == color:
            return 0
        colors[idx] = color
        self._recolor(u, idx, old, color)
        return self._recolor(v, idx, old, color)

    def _recolor(self, x: int, idx: int, old: int, new: int) -> int:
        """Update x's color index for edge ``idx`` going from ``old`` to
        ``new``, apply x's level change through ``_shift`` and return it.

        x's edges are scanned only when another edge keeps ``old`` (a twin),
        to find whether exactly one does.
        """
        at, b = self._at, x * self.colors
        delta = 0 if at[b + new] is None else 1
        at[b + new] = -1 if delta else idx
        if at[b + old] >= 0:
            _clear(at, b + old)
        else:
            colors = self.graph.colors
            rest = [i for i in self.graph.adj[x].values() if i != idx and colors[i] == old]
            at[b + old] = rest[0] if len(rest) == 1 else -1
            delta -= 1
        if delta:
            self._shift(x, delta)
        return delta

    def _shift(self, v: int, delta: int) -> None:
        """Add delta to v's level and move v to the end of its new bucket.

        This is the only writer of levels, buckets, bucket positions and the
        total; ``__init__`` joins each conflicting vertex through it.  v
        leaves its bucket by taking the last member into its slot, so with
        delta 0 it only swaps places with that last member.
        """
        level, buckets, pos = self._level, self._buckets, self._pos
        lvl = level[v]
        if lvl > 0:
            members = buckets[lvl]
            last = members[-1]
            i = pos[v]
            if not delta:
                members[i], members[-1] = last, v
                pos[last], pos[v] = i, len(members) - 1
                return
            members.pop()
            if last != v:
                members[i] = last
                pos[last] = i
        if delta:
            lvl += delta
            level[v] = lvl
            self.total += delta
            if lvl > 0:
                members = buckets[lvl]
                pos[v] = len(members)
                members.append(v)

    def check_consistency(self) -> None:
        """Raise RuntimeError unless the cached state matches a recount.

        Levels are compared with the set-based ``conflict_level``, and the
        color index with one rebuilt edge by edge, so this shares no code
        with the incremental updates it checks.
        """
        graph, colors = self.graph, self.colors
        at = _new_index(graph, colors)
        for i, ((u, v), c) in enumerate(zip(graph.edges(), graph.colors)):
            if c is None or not (0 <= c < colors):
                raise RuntimeError(f"edge ({u}, {v}) has untracked color {c!r}")
            for x in (u, v):
                k = x * colors + c
                at[k] = i if at[k] is None else -1
        if self._at != at or self._ends != [u ^ v for u, v in graph.edges()]:
            raise RuntimeError("stale color index")
        levels = [conflict_level(graph, v) for v in range(graph.n)]
        if self._level != levels:
            raise RuntimeError("stale conflict levels")
        if self.total != sum(levels):
            raise RuntimeError("stale total")
        for lvl, members in enumerate(self._buckets):
            want = {v for v, x in enumerate(levels) if x == lvl} if lvl > 0 else set()
            if set(members) != want or len(members) != len(want):
                raise RuntimeError(f"bucket {lvl} out of sync")
            if any(self._pos[v] != i for i, v in enumerate(members)):
                raise RuntimeError(f"bucket {lvl} positions out of sync")


def kempe_process(
    graph, cd: ConflictDictionary, start: int, node: int, new_color: int, rng: random.Random
) -> int:
    """Run the chain from edge {start, node} to termination.

    Each step recolors the edge into ``node`` to the carried color (first
    ``new_color``, then the color the previous recoloring displaced) and
    moves on to a uniform random neighbour of ``node``, other than the one
    it came from, whose edge has the carried color.  Returns the number of
    recolorings performed (at most n: every step but the last enters a
    vertex never seen before).

    The colors, levels and bucket order end as ``color_edge`` would leave
    them step by step.  ``node``'s index slot for the carried color gives
    the continuation: none, one edge, or -1, and only -1 scans ``node``'s
    edges, in insertion order, to draw among them with ``rng.choice``
    spelled out as ``getrandbits``.  ``choice``'s draw over one edge is
    owed, and the owed draws are made in order before that scan's draw and
    at the chain's end, which leaves ``rng`` as step-by-step draws would.
    Its slot for the old color says whether a twin, another edge of that
    color, stays.  Only the two ends change level.  An interior vertex
    hands the carried color on and takes the old one back, so its slots
    are set to their final values at once; without a twin, its level goes
    up by one and straight back, which only moves it to the end of its
    bucket.  ``start`` and the terminal ``node`` get ``color_edge``'s
    update, ``ConflictDictionary._recolor``, which scans edges only at a
    twin.  A chain swaps two distinct colors: a ``new_color`` equal to the
    edge's raises GraphError.

    The chain ends at its first revisit, and only ``start`` and branch
    vertices are remembered to find it.  A vertex is a branch when, on
    arrival, the carried color has several edges there or the old color
    keeps a twin, that is when it has three or more edges of the two chain
    colors.  Any other vertex has exactly two, the edges the chain came in
    and went out by, and still exactly those two after the swap; so up to
    the first revisit the chain is a simple path, and re-entering such a
    vertex would need a third edge of those colors.  The first vertex a
    chain repeats is therefore ``start`` or a branch vertex.  A swap keeps
    a vertex's count of chain-colored edges, so a branch vertex is still a
    branch when it is re-entered, and membership is tested only there.

    ``graph`` must be the graph ``cd`` tracks; any other raises GraphError
    before a write or a draw.
    """
    _check_tracked(graph, cd)
    idx = graph.edge_index(start, node)
    if graph.colors[idx] == new_color:
        raise GraphError(f"edge ({start}, {node}) already has color {new_color}")
    return _chain(cd, start, node, idx, new_color, rng)


def _check_tracked(graph, cd: ConflictDictionary) -> None:
    """Raise GraphError unless ``graph`` is the graph ``cd`` tracks."""
    if graph is not cd.graph:
        raise GraphError("the graph is not the one the conflict dictionary tracks")


def _chain(cd, start, node, idx, new_color, rng) -> int:
    """``kempe_process`` on ``cd``'s graph for edge id ``idx`` = {start, node},
    whose color is not ``new_color``."""
    if not (0 <= new_color < cd.colors):
        raise GraphError(f"color {new_color} outside [0, {cd.colors})")
    adj = cd.graph.adj
    colors = cd.graph.colors
    level, at, ends = cd._level, cd._at, cd._ends
    getrandbits = rng.getrandbits
    width = cd.colors  # index slots per vertex
    branches = {start}
    steps = 1
    owed = 0  # single-candidate draws not made yet
    carry = new_color
    old = colors[idx]
    # start is settled now, before the chain can come back to it
    cd._recolor(start, idx, old, carry)
    while True:
        b = node * width
        e = at[b + carry]
        if e is None:
            break
        if e >= 0:
            owed += 1
            if at[b + old] >= 0 and node != start:
                # a simple interior vertex: its two chain edges trade slots
                at[b + carry] = idx
                at[b + old] = e
                colors[idx] = carry
                if level[node] > 0:
                    cd._shift(node, 0)
                node = ends[e] ^ node
                carry, old = old, carry
                idx = e
                steps += 1
                continue
            out = e
        else:
            _skip_single_draws(getrandbits, owed)
            owed = 0
            many = [i for i in adj[node].values() if colors[i] == carry]
            out = many[_randbelow(getrandbits, len(many))]
        # what is left is the start or a branch vertex
        if node in branches:
            break
        branches.add(node)
        colors[idx] = carry
        # slots after the next step gives `out` the old color
        if e >= 0:
            at[b + carry] = idx
        if at[b + old] >= 0:
            at[b + old] = out
            if level[node] > 0:
                cd._shift(node, 0)
        node = ends[out] ^ node
        carry, old = old, carry
        idx = out
        steps += 1
    _skip_single_draws(getrandbits, owed)
    # a level can only drop at a chain end: a continuation keeps the carried color
    colors[idx] = carry
    cd._recolor(node, idx, old, carry)
    return steps


def kempe_start(
    graph, cd: ConflictDictionary, num_colors: int, v: int, rng: random.Random
) -> int:
    """Launch one chain from conflicting vertex v; no-op if v is unconflicting.

    Scans v's incident edges: the first sighting of a color sets its bit in
    a bitmask, a second sighting marks that edge as a repeated-color edge.
    One such edge is chosen uniformly, and the new chain color is drawn
    uniformly from the colors absent at v, with the draws ``rng.choice``
    would make, and found by ``_nth_free``.
    ``graph`` and ``num_colors`` must be the graph and the color count
    ``cd`` tracks; any other raises GraphError before a write or a draw.
    Returns the number of recolorings performed.
    """
    _check_tracked(graph, cd)
    if num_colors != cd.colors:
        raise GraphError(f"{num_colors} colors given, but the dictionary tracks {cd.colors}")
    deg = graph.degree(v)  # raises GraphError unless v is a vertex
    colors = graph.colors
    seen = 0
    repeated: list[int] = []
    for idx in graph.adj[v].values():
        bit = 1 << colors[idx]
        if seen & bit:
            repeated.append(idx)
        else:
            seen |= bit
    if not repeated:
        return 0
    free = num_colors - seen.bit_count()
    if free <= 0:
        raise GraphError(
            f"vertex {v} has degree {deg} > {num_colors} colors: no free color"
        )
    getrandbits = rng.getrandbits
    idx = repeated[_randbelow(getrandbits, len(repeated))]
    new_color = _nth_free(seen, _randbelow(getrandbits, free))
    return _chain(cd, v, cd._ends[idx] ^ v, idx, new_color, rng)
