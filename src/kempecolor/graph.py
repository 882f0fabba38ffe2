"""Undirected simple graph with one color slot per edge.

Vertices are dense integers 0..n-1.  Each unordered edge {u, v} owns a
single canonical color slot, so both orientations always read the same
color.  ``None`` means "uncolored"; only the pre-coloring routines should
ever observe it.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class GraphError(ValueError):
    """Invalid graph construction or query."""


class UncoloredEdgeError(GraphError):
    """An operation required a colored edge but found an uncolored one."""


class Graph:
    """A simple graph on vertices 0..n-1 with one color slot per edge.

    Edge ids are 0..m-1 in insertion order.  Three public lists form a
    flat view that the search reads and writes directly, skipping
    validation:

    - ``adj[v]`` maps each neighbour of v to the id of their edge, in
      insertion order;
    - ``endpoints[id]`` is that edge's (min, max) pair;
    - ``colors[id]`` is that edge's color, or ``None`` if uncolored.

    ``endpoints`` is read-only: the edge set never changes, so readers
    share the list instead of copying it (``edges()`` returns a copy).  A
    write through ``colors`` bypasses conflict tracking, as
    ``set_edge_color`` does.  All three lists live as long as the graph.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self.n = n
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        out: list[tuple[int, int]] = []
        append = out.append
        for idx, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            if u == v:
                raise GraphError(f"self-loop ({u}, {v}) is not allowed")
            around = adj[u]
            if v in around:
                raise GraphError(f"duplicate edge ({u}, {v})")
            append((u, v) if u < v else (v, u))
            around[v] = idx
            adj[v][u] = idx
        self.adj = adj
        self.endpoints = out
        self.colors: list[int | None] = [None] * len(out)

    @property
    def m(self) -> int:
        return len(self.endpoints)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj[v])

    def neighbors(self, v: int) -> Iterator[int]:
        self._check_vertex(v)
        return iter(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs, in insertion order: a fresh copy
        of ``endpoints``."""
        return list(self.endpoints)

    def edge_index(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            return self.adj[u][v]
        except KeyError:
            raise GraphError(f"edge ({u}, {v}) does not exist") from None

    def edge_color(self, u: int, v: int) -> int | None:
        return self.colors[self.edge_index(u, v)]

    def set_edge_color(self, u: int, v: int, color: int | None) -> None:
        """Raw color write, bypassing conflict tracking."""
        self.colors[self.edge_index(u, v)] = color

    def color_of_index(self, idx: int) -> int | None:
        return self.colors[idx]

    def incident_colors(self, v: int) -> list[int]:
        """Colors on the edges incident to v; raises if any is unset."""
        self._check_vertex(v)
        out = []
        for idx in self.adj[v].values():
            c = self.colors[idx]
            if c is None:
                u, w = self.endpoints[idx]
                raise UncoloredEdgeError(f"edge ({u}, {w}) incident to {v} is uncolored")
            out.append(c)
        return out

    def max_degree(self) -> int:
        return max(map(len, self.adj), default=0)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} outside [0, {self.n})")


class ParseError(ValueError):
    """Malformed edge-list or coloring text."""


# Largest vertex count an edge-list header may declare.  ``Graph`` allocates
# one adjacency dict per vertex (about 64 bytes each) before reading any
# edge, so an unchecked header could ask for any amount of memory.
MAX_VERTICES = 10**6

# Largest edge count an edge-list header or a generated graph may have.
# Parsing peaks at about 450 bytes per edge and a search holds 330-500, so
# 10^7 edges need some 5 GB; past that a run would end in a MemoryError.
MAX_EDGES = 10**7


def _check_header(line: str) -> tuple[int, int]:
    """The vertex and edge counts an edge-list header declares, within the caps."""
    header = line.split()
    if len(header) != 2:
        raise ParseError(f"header must be 'n m', got {line!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"header must be two integers, got {line!r}") from None
    if n > MAX_VERTICES:
        raise ParseError(f"header declares {n} vertices, more than the cap of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise ParseError(f"header declares {m} edges, more than the cap of {MAX_EDGES}")
    return n, m


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: line 1 is `n m`, then m lines `u v`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty edge-list input")
    n, m = _check_header(lines[0])
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    append = edges.append
    for ln in lines[1:]:
        parts = ln.split()
        try:
            u, v = parts
            append((int(u), int(v)))
        except ValueError:
            if len(parts) != 2:
                raise ParseError(f"edge line must be 'u v', got {ln!r}") from None
            raise ParseError(f"edge line must be two integers, got {ln!r}") from None
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def _decode(path: str, data: bytes) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: non-ASCII byte at offset {exc.start}") from None


def _read_ascii(path: str) -> str:
    with open(path, "rb") as fh:
        return _decode(path, fh.read())


def _first_line(text: str) -> str | None:
    """The first non-blank line of ``text``; None if the text may end inside it."""
    for ln in text.splitlines(keepends=True):
        line = ln.splitlines()[0]
        if line.strip():
            return line if line != ln else None
    return None


def _read_edge_list_text(path: str) -> str:
    """The edge-list file's text; its header is checked before the body is read.

    Only a prefix is read until its first non-blank line is complete, so an
    over-cap header costs about that line, not the file.
    """
    with open(path, "rb") as fh:
        data = b""
        # doubling reads: a long run of blank lines costs time linear in its length
        while chunk := fh.read(max(len(data), 1024)):
            data += chunk
            line = _first_line(_decode(path, data))
            if line is not None:
                _check_header(line)
                data += fh.read()
                break
    return _decode(path, data)


def read_edge_list(path: str) -> Graph:
    return parse_edge_list(_read_edge_list_text(path))


def format_coloring(graph: Graph) -> str:
    """Coloring output format: m lines `u v c`, edge insertion order."""
    lines = []
    for (u, v), c in zip(graph.endpoints, graph.colors):
        if c is None:
            raise UncoloredEdgeError(f"edge ({u}, {v}) is uncolored")
        lines.append(f"{u} {v} {c}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_coloring(graph: Graph, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_coloring(graph))


def parse_coloring(text: str) -> list[tuple[int, int, int]]:
    """Parse `u v c` lines into (u, v, color) triples."""
    triples = []
    append = triples.append
    for ln in text.splitlines():
        parts = ln.split()
        if not parts:
            continue
        try:
            u, v, c = parts
            append((int(u), int(v), int(c)))
        except ValueError:
            if len(parts) != 3:
                raise ParseError(f"coloring line must be 'u v c', got {ln!r}") from None
            raise ParseError(f"coloring line must be three integers, got {ln!r}") from None
    return triples


def read_coloring(path: str) -> list[tuple[int, int, int]]:
    return parse_coloring(_read_ascii(path))
