"""Fuzzed input: only ParseError leaves the parsers, they agree with the
line-by-line references below, and the CLI ends cleanly.

Headers stay small (a vertex count of at most 999), so no example allocates
much.  The examples are derandomized and no example database is kept, so
every run tries the same inputs.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from kempecolor import Graph, GraphError, ParseError, parse_coloring, parse_edge_list
from kempecolor.cli import main
from kempecolor.graph import MAX_VERTICES, read_edge_list

JUNK = st.one_of(
    st.sampled_from(["x", "", "1.5", "0x1", "+3", "--1", "9_9", "1e3", "é", "٣"]),
    st.text(max_size=3),
)
TOKEN = st.one_of(st.integers(-2, 9).map(str), JUNK)
LINE = st.lists(TOKEN, max_size=4).map(" ".join)
SOUP = st.lists(LINE, max_size=8).map("\n".join)


@st.composite
def corrupted(draw, lines):
    """Join the lines; one time in four, first replace one by a line of tokens."""
    if lines and draw(st.integers(0, 3)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(LINE)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@st.composite
def edge_list_texts(draw):
    """Simple graphs on at most 7 vertices; some with a bad line or edge count."""
    n = draw(st.integers(0, 7))
    pairs = []
    if n >= 2:
        ends = st.integers(0, n - 1)
        edge = st.tuples(ends, ends).filter(lambda e: e[0] != e[1])
        pairs = draw(st.lists(edge, max_size=12, unique_by=frozenset))
    m = len(pairs) + draw(st.sampled_from([0] * 6 + [1, -1]))
    return draw(corrupted([f"{n} {m}"] + [f"{u} {v}" for u, v in pairs]))


@st.composite
def coloring_texts(draw):
    small = st.integers(-1, 7)
    triples = draw(st.lists(st.tuples(small, small, small), max_size=12))
    return draw(corrupted([f"{u} {v} {c}" for u, v, c in triples]))


FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@FUZZ
@given(st.one_of(edge_list_texts(), coloring_texts(), SOUP))
def test_parsers_raise_only_parse_error(text):
    for parse in (parse_edge_list, parse_coloring):
        try:
            parse(text)
        except ParseError:
            pass


@FUZZ
@given(
    graph_text=st.one_of(edge_list_texts(), SOUP),
    coloring_text=st.one_of(coloring_texts(), SOUP),
    colors=st.integers(-1, 6),
    limit=st.integers(0, 3),
)
def test_cli_color_and_verify_end_cleanly(graph_text, coloring_text, colors, limit):
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "graph.txt")
        coloring_path = os.path.join(tmp, "coloring.txt")
        out_path = os.path.join(tmp, "out.txt")
        # UTF-8, so a non-ASCII character reaches the reader as raw bytes
        for path, text in ((graph_path, graph_text), (coloring_path, coloring_text)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        d = str(colors)
        runs = [
            ["color", graph_path, "-D", d, "-L", str(limit), "--seed", "0", "-o", out_path],
            ["verify", graph_path, coloring_path, "-D", d],
        ]
        for argv in runs:
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                status = main(argv)
            assert status in (0, 1, 2, 3), argv
            assert err.getvalue().count("\n") <= 1, err.getvalue()
            if argv[0] == "color" and status == 0:
                # a coloring reported as found must verify
                with redirect_stdout(io.StringIO()):
                    assert main(["verify", graph_path, out_path, "-D", d]) == 0


# ---- references: the parsers and Graph constructor before the inline rewrite


class ReferenceGraph:
    """Graph construction with one validated ``_add_edge`` call per edge."""

    def __init__(self, n, edges):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self.adj = [{} for _ in range(n)]
        self._edges = []
        for u, v in edges:
            self._add_edge(u, v)

    def _add_edge(self, u, v):
        if not (0 <= u < self.n) or not (0 <= v < self.n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside [0, {self.n})")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        if v in self.adj[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        idx = len(self._edges)
        self._edges.append((min(u, v), max(u, v)))
        self.adj[u][v] = idx
        self.adj[v][u] = idx

    def edges(self):
        return list(self._edges)


def reference_parse_edge_list(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"header must be two integers, got {lines[0]!r}") from None
    if n > MAX_VERTICES:
        raise ParseError(f"header declares {n} vertices, more than the cap of {MAX_VERTICES}")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"edge line must be two integers, got {ln!r}") from None
    try:
        return ReferenceGraph(n, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def reference_parse_coloring(text):
    triples = []
    for ln in text.splitlines():
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(f"coloring line must be 'u v c', got {ln!r}")
        try:
            triples.append((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError:
            raise ParseError(f"coloring line must be three integers, got {ln!r}") from None
    return triples


def outcome(build, *args, errors=(ParseError,)):
    """What build returns, or the error it raises as one string."""
    try:
        return build(*args)
    except errors as exc:
        return f"{type(exc).__name__}: {exc}"


def graph_outcome(build, *args, errors=(ParseError,)):
    """Vertex count, edge list and each adjacency dict in insertion order, or the error."""
    g = outcome(build, *args, errors=errors)
    if isinstance(g, str):
        return g
    return g.n, g.edges(), [list(around.items()) for around in g.adj]


# Look-alikes for a space and for a line break.  str.split() treats \x0b,
# \x0c and \x1c-\x1f as spaces, while str.splitlines() ends a line at each of
# them but \x1f, so a text holding them splits differently by the two.
SPACES = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
BREAKS = ["\n", "\r\n", "\r", "\n \n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


@st.composite
def respaced(draw, texts):
    """A text with each space and line break replaced by a drawn look-alike.

    The plain character stays the likeliest draw, so many respaced texts
    still parse.
    """
    out = []
    for ch in draw(texts):
        if ch == " ":
            ch = draw(st.sampled_from([" "] * 3 + SPACES))
        elif ch == "\n":
            ch = draw(st.sampled_from(["\n"] * 3 + BREAKS))
        out.append(ch)
    return "".join(out)


def mixed(texts):
    """The text as generated, one time in two with its separators respaced."""
    return st.one_of(texts, respaced(texts))


@st.composite
def unchecked_edge_list_texts(draw):
    """Right header and line count, but edges may be loops, repeats or out of range."""
    n = draw(st.integers(0, 5))
    pairs = draw(st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=8))
    return draw(corrupted([f"{n} {len(pairs)}"] + [f"{u} {v}" for u, v in pairs]))


@FUZZ
@given(mixed(st.one_of(edge_list_texts(), unchecked_edge_list_texts(), SOUP)))
def test_parse_edge_list_matches_reference(text):
    assert graph_outcome(parse_edge_list, text) == graph_outcome(reference_parse_edge_list, text)


@FUZZ
@given(mixed(st.one_of(coloring_texts(), SOUP)))
def test_parse_coloring_matches_reference(text):
    assert outcome(parse_coloring, text) == outcome(reference_parse_coloring, text)


@FUZZ
@given(
    n=st.integers(-1, 6),
    edges=st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)), max_size=12),
)
def test_graph_matches_reference(n, edges):
    got = graph_outcome(Graph, n, edges, errors=(GraphError,))
    assert got == graph_outcome(ReferenceGraph, n, edges, errors=(GraphError,))
    if not isinstance(got, str):
        assert Graph(n, edges).colors == [None] * len(got[1])


@pytest.mark.parametrize(
    "text, accepted",
    [
        ("3 2\x1c0 1\x1d1 2\x1e", True),  # separators that end lines
        ("3\x0b2\n0 1\n1 2\n", False),  # the header split across two lines
        ("3 1\n0\x0c1\n", False),  # an edge split across two lines
        ("3\x1f1\n0\x1f1\n", True),  # \x1f is a space, not a line break
        ("3 1\r\n\x0b\r\n2 1\r\n", True),  # a line of spaces only is blank
    ],
)
def test_parse_edge_list_line_breaks_match_reference(text, accepted):
    want = graph_outcome(reference_parse_edge_list, text)
    assert isinstance(want, str) is not accepted
    assert graph_outcome(parse_edge_list, text) == want


@pytest.mark.parametrize(
    "text, accepted",
    [
        ("0 1 2\n \t \n1 2 0\n", True),  # a line of spaces only is blank
        ("0 1 2\x1c1 2 0\x0b\x0c", True),  # separators that end lines
        ("0 1\x1d2\n", False),  # a triple split across two lines
        ("0\x1f1\x1f2\n", True),  # \x1f is a space, not a line break
    ],
)
def test_parse_coloring_line_breaks_match_reference(text, accepted):
    want = outcome(reference_parse_coloring, text)
    assert isinstance(want, str) is not accepted
    assert outcome(parse_coloring, text) == want


@FUZZ
@given(
    text=mixed(st.one_of(edge_list_texts(), unchecked_edge_list_texts(), SOUP)),
    # a run of blank characters that ends near a read boundary of read_edge_list
    pad=st.sampled_from(["\n", " ", "\r"]),
    width=st.one_of(st.just(0), st.integers(1000, 1030), st.integers(2030, 2060)),
)
def test_read_edge_list_matches_parse_edge_list(text, pad, width):
    text = pad * width + text
    data = text.encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        got = graph_outcome(read_edge_list, path)
    want = graph_outcome(parse_edge_list, text)
    if text.isascii():
        assert got == want
    else:
        # a bad header may be reported before a non-ASCII byte that follows it
        offset = next(i for i, b in enumerate(data) if b >= 0x80)
        late_header = isinstance(want, str) and want.startswith("ParseError: header ")
        assert got == f"ParseError: {path}: non-ASCII byte at offset {offset}" or (
            late_header and got == want
        )
