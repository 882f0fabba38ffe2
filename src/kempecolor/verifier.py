"""Independent correctness checks and a tiny-graph exact oracle.

These never consult the conflict dictionary, so they can vouch for it.
"""

from __future__ import annotations

from .graph import Graph, GraphError


# the edge pass's table takes a byte per (vertex, color) slot while there are
# at most 32 slots per vertex plus 4 per edge, as the conflict dictionary's
# flat color index does; past that the per-vertex scan needs no table
_TABLE_SLOTS_PER_VERTEX = 32
_TABLE_SLOTS_PER_EDGE = 4


def check_edge_coloring(graph: Graph, num_colors: int) -> bool:
    """True iff every vertex is properly colored: its incident colors are
    pairwise distinct and all lie in [0, num_colors).

    One pass over the edges in insertion order marks a byte for each
    endpoint and the edge's color, and stops at the first uncolored edge,
    the first color outside [0, num_colors) or the first byte already
    marked.  A full pass means True, and a stop with every edge colored
    means False.  The table has n * num_colors bytes, so past 32 per vertex
    plus 4 per edge the check skips the pass.  When an edge is uncolored, or
    the pass is skipped, the check scans vertices in label order instead
    and stops at the first one that is not properly colored; an uncolored
    edge at a vertex reached first raises ``UncoloredEdgeError``, naming
    that vertex's first uncolored edge in insertion order, as
    ``Graph.incident_colors`` does.
    """
    n, colors = graph.n, graph.colors
    slots = n * num_colors
    if slots <= _TABLE_SLOTS_PER_VERTEX * n + _TABLE_SLOTS_PER_EDGE * graph.m:
        # num_colors <= 0 leaves an empty table, and every colored edge stops the pass
        marked = bytearray(max(slots, 0))
        for (u, v), c in zip(graph.endpoints, colors):
            if c is None or not 0 <= c < num_colors:
                break
            a, b = u * num_colors + c, v * num_colors + c
            if marked[a] or marked[b]:
                break
            marked[a] = marked[b] = 1
        else:
            return True
        if None not in colors:
            return False
    # an uncolored edge, or no table: scan vertices in label order
    for v, around in enumerate(graph.adj):
        incident = {colors[idx] for idx in around.values()}
        if None in incident:
            graph.incident_colors(v)  # raises, naming the first uncolored edge
        if len(incident) != len(around):
            return False
        if incident and not (0 <= min(incident) and max(incident) < num_colors):
            return False
    return True


# the backtracking search is exponential in the edge count
_BRUTE_FORCE_MAX_EDGES = 16


def brute_force_chromatic_index(graph: Graph) -> int:
    """Exact chromatic index by backtracking; only for graphs of at most
    16 edges, and GraphError for more.

    Tries max-degree colors first, then max-degree + 1 (one of the two
    always works for a simple graph).  Colors are assigned to edges in a
    fixed order, ascending, with the first edge pinned to color 0.
    """
    if graph.m > _BRUTE_FORCE_MAX_EDGES:
        raise GraphError(f"graph has {graph.m} edges, brute-force cap is {_BRUTE_FORCE_MAX_EDGES}")
    if graph.m == 0:
        return 0
    delta = graph.max_degree()
    if _edge_colorable(graph, delta):
        return delta
    if not _edge_colorable(graph, delta + 1):
        raise RuntimeError("simple graph exceeded max degree + 1")
    return delta + 1


def _edge_colorable(graph: Graph, num_colors: int) -> bool:
    edges = sorted(graph.endpoints)
    used = [set() for _ in range(graph.n)]

    def backtrack(i: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        limit = 1 if i == 0 else num_colors
        for c in range(limit):
            if c not in used[u] and c not in used[v]:
                used[u].add(c)
                used[v].add(c)
                if backtrack(i + 1):
                    return True
                used[u].remove(c)
                used[v].remove(c)
        return False

    return backtrack(0)
