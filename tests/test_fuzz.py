"""Fuzzed input: only ParseError leaves the parsers, and the CLI ends cleanly.

Headers stay small (a vertex count of at most 999), so no example allocates
much.  The examples are derandomized and no example database is kept, so
every run tries the same inputs.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from kempecolor import ParseError, parse_coloring, parse_edge_list
from kempecolor.cli import main

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
