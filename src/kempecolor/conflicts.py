"""Pre-colorings, conflict levels, the level -> vertex-set dictionary and Kempe chains.

The conflict level of a vertex is its degree minus the number of distinct
colors on its incident edges (0 means locally proper).  The dictionary
buckets every vertex with level >= 1 by its level and keeps the total
conflictivity (sum of all levels) cached, so the search loop gets O(1)
reads.  It also indexes each vertex's edges by color in one flat list of
per-vertex records: a vertex's level, then one slot per color, so a chain
step finds the edge of a given color at a vertex with one list read, and
the level on the same stretch of memory; it scans the vertex's edges only
where that color repeats.  When that list would outgrow a dict per
vertex, the same records live in a dict that holds only the levels and
the filled slots.

A Kempe chain starts at a conflicting vertex, walks along edges whose
colors alternate between the carried old color and the chosen new color,
and recolors each traversed edge.  It stops when a recoloring lowers the
conflict level of the vertex just reached, when no continuation edge
exists, or when the chain revisits a vertex (which bounds the number of
recolorings by n and catches two-colored cycles).  Only the start vertex
and the vertices with three or more edges of the chain's two colors can
be revisited first, so only those are remembered.  The chain walks record
bases, not vertices, and makes two simple steps per loop turn, one for
each of the two colors it carries in turn.

A pass is dead when every conflicting vertex has level 1 and degree D,
so its doubled color a and its free color c are forced, when its {a, c}
component is a cycle back to it on which every other vertex has one edge
of each color, and when any two such pairs are equal or share no color.
Every chain then goes once round its start's cycle and swaps a and c on
it, and the state stays dead, so after k chains from a vertex its cycle
is swapped iff k is odd.  ``ConflictDictionary.detect_dead`` finds that
state and caches one record per conflicting vertex, and ``kempe_start``
then replays the chain from the record: the walk's draws, bucket moves
and returned count, without walking, and one flip of the record's
parity.  A record keeps its cycle once, as the edge ids in walk order.
``ConflictDictionary.settle`` walks each record of odd parity once more,
swapping a and c on its edges and index slots, and drops the records,
before anything reads the colors or the index.  So the dictionary holds
either no records, or records whose swaps may be pending, and the next
chain after a settle walks.

The greedy and random pre-colorings that start each pass live here too,
so one module owns the taken-color bitmask, the free-color walk
``_nth_free`` that greedy and ``kempe_start`` share, and every draw the
search makes.

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

    Each round takes k = min(r, 1024) words with one ``getrandbits(32 *
    k)``, which returns the next k words, first word lowest; with k <= r,
    every one is a word the loops would take, and each word whose top bit
    is clear ends one loop.  Below 8 owed draws the loops are made one
    ``getrandbits(1)`` call at a time.
    """
    while r >= 8:
        k = r if r < 1024 else 1024
        # each of the k words whose top bit is clear closes one loop
        r -= k - (getrandbits(32 * k) & _TOPS).bit_count()
    while r:
        if not getrandbits(1):
            r -= 1


def _nth_free(taken: int, r: int) -> int:
    """The r-th color, counting from 0, whose bit is clear in the bitmask ``taken``.

    That color is the least c >= r with c = r + (taken colors at or below c):
    below it the right side exceeds c, and it never falls as c grows, so
    applying it from c = r climbs to it, one popcount per round.
    """
    c = r
    while (n := r + (taken & ((2 << c) - 1)).bit_count()) != c:
        c = n
    return c


def _repeats(around: dict[int, int], colors: list) -> tuple[int, list[int]]:
    """The bitmask of the colors on a vertex's edges ``around``, and, in
    insertion order, the edges whose color an earlier edge there has."""
    seen = 0
    repeated = []
    for idx in around.values():
        bit = 1 << colors[idx]
        if seen & bit:
            repeated.append(idx)
        else:
            seen |= bit
    return seen, repeated


def greedy_precolor(graph: Graph, num_colors: int, rng: random.Random) -> None:
    """Color every edge, preferring colors unused at both endpoints.

    Edges are visited in ascending (min, max) order, by edge id, so each
    color is written without an adjacency lookup.  When every color
    already appears at an endpoint, a uniform random color is forced.
    With edges and fewer than one color it raises ValueError before any
    write or draw; otherwise every edge gets a color and none is read.

    Each vertex keeps its used colors as an int bitmask.  The free color
    is drawn as ``rng.choice`` over the ascending free colors would draw
    it (one ``randrange`` of their count), then found by ``_nth_free``'s
    fixed point, whose rounds each count the used colors below a candidate
    at once.  A bitmask is as wide as the largest color it holds, not as
    the degree, so with D much larger than the maximum degree memory grows
    as n * D bits and each mask operation costs time in proportion to D
    (ROADMAP item 11).  Each ``randrange(k)`` is the ``getrandbits`` loop
    that ``Random._randbelow`` runs, called directly, so the draws are the
    same.
    """
    if graph.colors and num_colors < 1:
        raise ValueError(f"cannot color edges with {num_colors} colors")
    colors = graph.colors
    getrandbits = rng.getrandbits
    used = [0] * graph.n
    edges = graph.endpoints
    for i in sorted(range(len(edges)), key=edges.__getitem__):
        u, v = edges[i]
        taken = used[u] | used[v]
        free = num_colors - taken.bit_count()
        c = _randbelow(getrandbits, free if free > 0 else num_colors)
        if free > 0:
            c = _nth_free(taken, c)
        colors[i] = c
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


class _SparseIndex(dict):
    """The color index as a dict of every level and the filled slots; an
    empty slot reads None."""

    __slots__ = ()

    def __missing__(self, key: int) -> None:
        return None


def _new_index(graph: Graph, colors: int) -> list | _SparseIndex:
    """An index of n records of ``colors + 1`` slots, every level 0 and
    every color slot empty: a flat list while it has at most 32 color slots
    per vertex plus 4 per edge, about what a dict per vertex would take."""
    if graph.n * colors <= 32 * graph.n + 4 * graph.m:
        return ([0] + [None] * colors) * graph.n
    return _SparseIndex.fromkeys(range(0, graph.n * (colors + 1), colors + 1), 0)


def _clear(at: list | _SparseIndex, slot: int) -> None:
    """Empty one color slot of the index."""
    if at.__class__ is list:
        at[slot] = None
    else:
        del at[slot]


class ConflictDictionary:
    """Levels, buckets and a color index for a totally colored graph.

    The index ``_at`` holds one record of D + 1 slots per vertex, D =
    ``colors``, at the record base ``v * (D + 1)``.  The base slot holds
    v's level.  Slot ``base + 1 + c`` holds the id of v's edge of color c
    when exactly one edge of v has it, -1 when two or more do, and None
    when none does, so v's level is its degree minus its filled slots.  The
    index is a flat list while it has at most 32 color slots per vertex
    plus 4 per edge, about the size of a small dict per vertex (on a
    regular graph, any D up to 2Δ + 32), and otherwise a dict of every
    level and the filled slots, so memory stays O(n + m) whatever the
    number of colors.  ``_ends[e]`` is the sum of edge e's endpoints'
    record bases, so ``_ends[e] - b`` is the base of the endpoint that is
    not at base b.

    ``_buckets`` is a list indexed by level whose slot 0 stays empty:
    ``_buckets[lvl]`` lists the vertices at level lvl >= 1, and ``_pos[v]``
    is v's place in its list.  A vertex leaves its list by taking the last
    member into its slot and joins at the end, so sampling a bucket is one
    list read.

    ``_dead`` is None, or while the pass is dead, the replay record of
    each conflicting vertex (see ``detect_dead``).  While it holds records,
    the colors and the color index may lag the levels and buckets by a
    swap of each record's cycle, until ``settle`` makes those swaps and
    sets it back to None.
    """

    def __init__(self, graph: Graph, colors: int):
        self.graph = graph
        self.colors = colors
        self._width = width = colors + 1  # slots per record
        edge_colors = graph.colors
        edges = graph.endpoints
        # vetted in C; only a coloring that fails is walked to name its first bad edge
        if edge_colors and (
            None in edge_colors or min(edge_colors) < 0 or max(edge_colors) >= colors
        ):
            for (u, v), c in zip(edges, edge_colors):
                if c is None:
                    raise UncoloredEdgeError(f"edge ({u}, {v}) is uncolored")
                # kempe_start's free-color rank walk assumes colors in [0, D)
                if not (0 <= c < colors):
                    raise GraphError(f"edge ({u}, {v}) has color {c} outside [0, {colors})")
        self._at = at = _new_index(graph, colors)
        # a sum, not an XOR: CPython specializes int subtraction, so the
        # chain's step to the far end is cheaper, and the build multiplies once
        self._ends = [(u + v) * width for u, v in edges]
        # a level never exceeds degree - 1, so every bucket exists up front
        self._buckets: list[list[int]] = [[] for _ in range(graph.max_degree())]
        self._pos = [0] * graph.n
        self.total = 0
        self._dead: dict[int, list] | None = None
        for b, around in zip(range(0, graph.n * width, width), graph.adj):
            first = b + 1  # the slot of color 0
            repeats = 0
            for i in around.values():
                k = first + edge_colors[i]
                if at[k] is None:
                    at[k] = i
                else:
                    at[k] = -1
                    repeats += 1
            if repeats:
                self._shift(b, repeats)

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
        ``_recolor`` update that a Kempe chain applies at its two ends.  A
        dead pass is settled first, even for a no-op.
        """
        if not (0 <= color < self.colors):
            raise GraphError(f"color {color} outside [0, {self.colors})")
        idx = self.graph.edge_index(u, v)
        self.settle()
        colors = self.graph.colors
        old = colors[idx]
        if old == color:
            return 0
        colors[idx] = color
        width = self._width
        self._recolor(u * width, idx, old, color)
        return self._recolor(v * width, idx, old, color)

    def detect_dead(self) -> bool:
        """True when the pass is dead, and then each conflicting vertex's
        chain is replayed from a cached record until ``settle``.

        Dead means: every conflicting vertex v has level 1 and degree D,
        so it has one doubled color a and one free color c; v's {a, c}
        component is a cycle back to v on which every other vertex has one
        edge of each color; and any two such pairs are equal or share no
        color.  A chain from v must then start on v's later a-edge in
        insertion order with the new color c, go once round the cycle and
        close on v, swapping a and c on it; v leaves bucket 1 and rejoins
        it at the end, and each conflicting vertex on the cycle moves to
        the end of its bucket in passing.  That swap keeps every condition
        for every vertex, with a and c trading places at v.  Two such
        cycles share no edge and no slot, so each swap is the same whatever
        the others do, and two swaps of one cycle cancel.

        The record is a list: the parity of the swaps not yet made, the
        cycle's length, the conflicting vertices on it, a and c, and the
        cycle's edge ids in walk order, along which ``settle`` walks the
        cycle again.  After this, only ``_replay``'s parity flip writes to
        it.  The check reads v's edges and walks each cycle once, so it
        costs about one chain per conflicting vertex.  A walk that has not
        closed after m edges can only follow a corrupt index, and raises
        RuntimeError.
        """
        if self._dead is not None:
            return True
        if not self.total:
            return False
        ones = self._buckets[1]
        # all levels 1: the total counts each conflicting vertex once
        if self.total != len(ones):
            return False
        adj, colors, m = self.graph.adj, self.graph.colors, self.graph.m
        at, ends, width = self._at, self._ends, self._width
        owner: dict[int, tuple[int, int]] = {}
        dead = {}
        for v in ones:
            around = adj[v]
            if len(around) != self.colors:
                return False
            seen, (start,) = _repeats(around, colors)
            a = colors[start]
            c = _nth_free(seen, 0)
            pair = (a, c) if a < c else (c, a)
            if owner.setdefault(a, pair) != pair or owner.setdefault(c, pair) != pair:
                return False
            s = v * width
            # walk v's {a, c} component from its later a-edge, carrying c
            walk, inner = [start], []
            kc, ko = c + 1, a + 1
            b = ends[start] - s
            # a cycle has at most m edges, so the walk closes within m turns
            for _ in range(m):
                if b == s:
                    break
                sc, so = b + kc, b + ko
                e = at[sc]
                if e is None or e < 0 or at[so] < 0:
                    return False
                if at[b]:
                    inner.append(b // width)
                walk.append(e)
                b = ends[e] - b
                kc, ko = ko, kc
            else:
                raise RuntimeError(f"vertex {v}'s cycle walk does not close: corrupt color index")
            dead[v] = [0, len(walk), inner, a, c, walk]
        self._dead = dead
        return True

    def settle(self) -> None:
        """Make each record's pending cycle swap and drop the records, so
        that the colors and the color index match the levels and buckets
        again and the next chain walks.

        A record of odd parity is walked from v's record base along its
        edges, stepping ``b = ends[e] - b`` as the chain does: each edge
        has a and c swapped, and each base its a/c slot pair, v's included,
        which empties v's a slot and marks two c-edges there, as
        ``_recolor`` leaves them.  v's a slot is then cleared with
        ``_clear``, so the dict form of the index holds no None.  A record
        of even parity has nothing pending.
        """
        dead, self._dead = self._dead, None
        if dead is None:
            return
        colors, at, ends, width = self.graph.colors, self._at, self._ends, self._width
        for v, (parity, _, _, a, c, walk) in dead.items():
            if not parity:
                continue
            ka, kc = a + 1, c + 1
            b = v * width
            for e in walk:
                colors[e] = a + c - colors[e]  # a <-> c
                at[b + ka], at[b + kc] = at[b + kc], at[b + ka]
                b = ends[e] - b
            _clear(at, b + ka)  # the walk closes on v

    def _recolor(self, b: int, idx: int, old: int, new: int) -> int:
        """Update the record at base b for edge ``idx`` going from ``old``
        to ``new``, apply its vertex's level change through ``_shift`` and
        return it.

        The vertex's edges are scanned only when another edge keeps ``old``
        (a twin), to find whether exactly one does.
        """
        at = self._at
        kn, ko = b + 1 + new, b + 1 + old
        delta = 0 if at[kn] is None else 1
        at[kn] = -1 if delta else idx
        if at[ko] >= 0:
            _clear(at, ko)
        else:
            colors = self.graph.colors
            around = self.graph.adj[b // self._width]
            rest = [i for i in around.values() if i != idx and colors[i] == old]
            at[ko] = rest[0] if len(rest) == 1 else -1
            delta -= 1
        if delta:
            self._shift(b, delta)
        return delta

    def _shift(self, b: int, delta: int) -> None:
        """Add delta to the level of the vertex whose record base is b and
        move that vertex to the end of its new bucket.

        This is the only writer of levels and the total, and ``__init__``
        joins each conflicting vertex through it.  ``_replay`` is the other
        writer of buckets and bucket positions: it makes a dead-pass
        chain's bucket-1 moves inline, with this method's delta-0 swap,
        since sending them through this method read 7.7% slower per color
        write on perfbench's class2-fail (0.190 against 0.204 us, 2-vCPU
        host).  The vertex leaves its bucket by taking the last member into
        its slot, so with delta 0 it only swaps places with that last
        member.
        """
        at, buckets, pos = self._at, self._buckets, self._pos
        v = b // self._width
        lvl = at[b]
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
            at[b] = lvl
            self.total += delta
            if lvl > 0:
                members = buckets[lvl]
                pos[v] = len(members)
                members.append(v)

    def check_consistency(self) -> None:
        """Raise RuntimeError unless the cached state matches a recount.

        Levels are compared with the set-based ``conflict_level``, and the
        color index with one rebuilt edge by edge, so this shares no code
        with the incremental updates it checks.  Pending swaps are settled
        first.
        """
        self.settle()
        graph, colors, width = self.graph, self.colors, self._width
        at = _new_index(graph, colors)
        edges = graph.endpoints
        for i, ((u, v), c) in enumerate(zip(edges, graph.colors)):
            if c is None or not (0 <= c < colors):
                raise RuntimeError(f"edge ({u}, {v}) has untracked color {c!r}")
            for x in (u, v):
                k = x * width + 1 + c
                at[k] = i if at[k] is None else -1
        levels = [conflict_level(graph, v) for v in range(graph.n)]
        if [self._at[v * width] for v in range(graph.n)] != levels:
            raise RuntimeError("stale conflict levels")
        for v, lvl in enumerate(levels):
            at[v * width] = lvl
        if self._at != at or self._ends != [u * width + v * width for u, v in edges]:
            raise RuntimeError("stale color index")
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
    twin.  A chain swaps two distinct colors of [0, D): a ``new_color``
    equal to the edge's, or outside that range, raises GraphError before
    a write or a draw.

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
    before a write or a draw.  A dead pass is settled first.
    """
    _check_tracked(graph, cd)
    idx = graph.edge_index(start, node)
    cd.settle()
    if graph.colors[idx] == new_color:
        raise GraphError(f"edge ({start}, {node}) already has color {new_color}")
    if not (0 <= new_color < cd.colors):
        raise GraphError(f"color {new_color} outside [0, {cd.colors})")
    width = cd._width
    return _chain(cd, start * width, node * width, idx, new_color, rng)


def _check_tracked(graph, cd: ConflictDictionary) -> None:
    """Raise GraphError unless ``graph`` is the graph ``cd`` tracks."""
    if graph is not cd.graph:
        raise GraphError("the graph is not the one the conflict dictionary tracks")


def _chain(cd, s, b, idx, new_color, rng) -> int:
    """``kempe_process`` on ``cd``'s graph for edge id ``idx`` between the
    vertices whose record bases are s (the start) and b, with ``idx`` not
    colored ``new_color``, a color its caller keeps in [0, D), and any
    dead pass settled.

    Each loop turn tries two simple steps: the first carries the color the
    turn starts with and the second the other one, so neither step swaps
    them.  Any other step goes to the general path below, which swaps them.
    A chain makes at most n steps, and each general step adds a branch
    vertex or ends it, so more simple steps than n between two draws among
    several edges can only follow a corrupt index, and raise RuntimeError.
    """
    adj = cd.graph.adj
    colors = cd.graph.colors
    at, ends, width = cd._at, cd._ends, cd._width
    getrandbits = rng.getrandbits
    cap = len(adj) + 2
    branches = {s}
    # each step that goes on makes one draw: the owed ones are counted at
    # each flush and at the end, the ones among several edges as they are made
    steps = 1
    owed = 0  # single-candidate draws not made yet
    carry = new_color
    old = colors[idx]
    # record offsets of the two chain colors' slots
    kc = carry + 1
    ko = old + 1
    # start is settled now, before the chain can come back to it
    cd._recolor(s, idx, old, carry)
    while True:
        # b's slots for the carried and the old color
        sc = b + kc
        so = b + ko
        e = at[sc]
        # a simple interior vertex: one edge of each color, so they trade slots
        if e is not None and e >= 0 and at[so] >= 0 and b != s:
            at[sc] = idx
            at[so] = e
            colors[idx] = carry
            if at[b]:
                cd._shift(b, 0)
            b = ends[e] - b
            idx = e
            # the second step carries the old color
            sc = b + ko
            so = b + kc
            e = at[sc]
            if e is not None and e >= 0 and at[so] >= 0 and b != s:
                at[sc] = idx
                at[so] = e
                colors[idx] = old
                if at[b]:
                    cd._shift(b, 0)
                b = ends[e] - b
                idx = e
                owed += 2
                if owed < cap:
                    continue
                raise RuntimeError(f"vertex {s // width}'s chain never ends: corrupt color index")
            owed += 1
            carry, old, kc, ko = old, carry, ko, kc
        # e is at[sc], and b is the start, a branch vertex or the chain's end
        if e is None:
            break
        if e >= 0:
            owed += 1
            out = e
        else:
            _skip_single_draws(getrandbits, owed)
            steps += owed + 1
            owed = 0
            many = [i for i in adj[b // width].values() if colors[i] == carry]
            out = many[_randbelow(getrandbits, len(many))]
        if b in branches:
            # its draw is made, but it recolors nothing
            steps -= 1
            break
        branches.add(b)
        colors[idx] = carry
        # slots after the next step gives `out` the old color
        if e >= 0:
            at[sc] = idx
        if at[so] >= 0:
            at[so] = out
            if at[b]:
                cd._shift(b, 0)
        b = ends[out] - b
        idx = out
        carry, old, kc, ko = old, carry, ko, kc
    _skip_single_draws(getrandbits, owed)
    steps += owed
    # a level can only drop at a chain end: a continuation keeps the carried color
    colors[idx] = carry
    cd._recolor(b, idx, old, carry)
    return steps


def _replay(cd, v, record, getrandbits) -> int:
    """The chain from vertex v in a dead pass, from its ``detect_dead``
    record: the walk's draws and bucket moves, in the walk's order, and its
    recoloring count, with the cycle's swap left pending.

    The draws are ``kempe_start``'s two over one item and one per cycle
    edge.  The walk's bucket moves take v out of bucket 1, each
    conflicting cycle vertex to its end and v back in; no level and not
    the total change.  They are made inline as ``_shift``'s delta-0 swap:
    v trades places with the last member, then each conflicting cycle
    vertex with the member just before v, which leaves the same order and
    positions.  The cycle's swap is one flip of the record's parity;
    ``ConflictDictionary.settle`` makes it.
    """
    steps = record[1]
    _skip_single_draws(getrandbits, steps + 2)
    record[0] ^= 1
    members, pos = cd._buckets[1], cd._pos
    end = len(members) - 1
    i, last = pos[v], members[end]
    members[i], members[end] = last, v
    pos[last], pos[v] = i, end
    # v stays last: each conflicting cycle vertex swaps with the slot before it
    end -= 1
    for w in record[2]:
        i, last = pos[w], members[end]
        members[i], members[end] = last, w
        pos[last], pos[w] = i, end
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
    Returns the number of recolorings performed.  While ``cd`` holds a
    dead pass's records, v's chain is replayed from its record instead,
    with the same draws, bucket moves and result, and its swap left to
    ``ConflictDictionary.settle``; a v without a record settles first, so
    its chain walks.
    """
    _check_tracked(graph, cd)
    if num_colors != cd.colors:
        raise GraphError(f"{num_colors} colors given, but the dictionary tracks {cd.colors}")
    deg = graph.degree(v)  # raises GraphError unless v is a vertex
    dead = cd._dead
    if dead is not None:
        record = dead.get(v)
        if record is not None:
            return _replay(cd, v, record, rng.getrandbits)
        cd.settle()
    seen, repeated = _repeats(graph.adj[v], graph.colors)
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
    s = v * cd._width
    return _chain(cd, s, cd._ends[idx] - s, idx, new_color, rng)
