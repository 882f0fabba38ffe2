"""Spans around the calls that kempecolor.driver and kempecolor.cli make.

The tracer swaps the names those two modules import for wrappers, plus
the method ``ConflictDictionary.color_edge``, and puts every original
back in a ``finally``.  No file under ``src/`` changes.  A span is
``[name, start, end, parent, value]``; ``parent`` is the index of the
enclosing span (-1 for none).  ``color_edge`` runs about 1.5M times per
cubic-large round, so it gets no span of its own: its call count and
summed time are folded into the enclosing ``kempe_start`` span.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

from kempecolor import cli, driver
from kempecolor.conflicts import ConflictDictionary

# (owner, attribute, span name); color_edge is folded, not spanned
PATCHED = (
    (driver, "greedy_precolor", "precolor.greedy_precolor"),
    (driver, "heuristic_pass", "driver.heuristic_pass"),
    (driver, "kempe_start", "kempe.kempe_start"),
    (driver, "ConflictDictionary", "conflicts.build"),
    (driver, "check_edge_coloring", "verifier.check_edge_coloring"),
    (cli, "read_edge_list", "graph.read_edge_list"),
    (cli, "read_coloring", "graph.read_coloring"),
    (cli, "check_edge_coloring", "verifier.check_edge_coloring"),
    (ConflictDictionary, "color_edge", None),
)
# what a span keeps of its call's result
SPAN_VALUE = {
    "driver.heuristic_pass": lambda solved: solved,
    "conflicts.build": lambda cd: cd.total,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._edge = [0, 0.0]  # color_edge calls and seconds, running totals

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1], None])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int, value) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[4] = value
        self._stack.pop()

    def _wrap(self, name, fn):
        keep = SPAN_VALUE.get(name, lambda result: None)

        def traced(*args, **kwargs):
            idx = self._open(name)
            value = None
            try:
                result = fn(*args, **kwargs)
                value = keep(result)
                return result
            finally:
                self._close(idx, value)

        return traced

    def _wrap_kempe(self, fn):
        edge = self._edge

        def traced(graph, cd, num_colors, v, rng):
            before = cd.total
            calls, secs = edge
            idx = self._open("kempe.kempe_start")
            steps = 0
            try:
                steps = fn(graph, cd, num_colors, v, rng)
                return steps
            finally:
                self._close(idx, (steps, cd.total < before, edge[0] - calls, edge[1] - secs))

        return traced

    def _wrap_color_edge(self, fn):
        edge = self._edge

        def color_edge(cd, u, v, color):
            start = perf_counter()
            try:
                return fn(cd, u, v, color)
            finally:
                edge[0] += 1
                edge[1] += perf_counter() - start

        return color_edge

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals however the block ends."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in PATCHED]
        try:
            for (owner, attr, name), (_, _, original) in zip(PATCHED, saved):
                if attr == "color_edge":
                    wrapper = self._wrap_color_edge(original)
                elif attr == "kempe_start":
                    wrapper = self._wrap_kempe(original)
                else:
                    wrapper = self._wrap(name, original)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, value) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, value]) + "\n")


def layer_metrics(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer metrics over spans[first:], one round of operations.

    Times are busy seconds summed over the round; ``*_self_s`` subtracts
    the time of child spans.
    """
    count: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    child_s: dict[int, float] = defaultdict(float)
    names = {}
    passes_failed = 0
    precolor_out = []
    final_check_s = 0.0
    chain_max = recolorings = improving = wasted = edge_calls = 0
    edge_s = 0.0
    for i in range(first, len(spans)):
        name, start, end, parent, value = spans[i]
        dur = end - start
        names[i] = name
        count[name] += 1
        busy[name] += dur
        child_s[parent] += dur
        parent_name = names.get(parent)
        if name == "driver.heuristic_pass" and value is False:
            passes_failed += 1
        elif name == "conflicts.build" and parent_name == "driver.heuristic_pass":
            precolor_out.append(value)
        elif name == "kempe.kempe_start":
            steps, improved, calls, secs = value
            recolorings += steps
            chain_max = max(chain_max, steps)
            improving += improved
            edge_calls += calls
            edge_s += secs
            if spans[parent][4] is False:
                wasted += steps
        if parent_name == "op.apply_heuristic":
            if name in ("conflicts.build", "verifier.check_edge_coloring"):
                final_check_s += dur

    children_s: dict[str, float] = defaultdict(float)
    for i, name in names.items():
        children_s[name] += child_s[i]

    def self_s(span_name):
        return busy[span_name] - children_s[span_name]

    starts = count["kempe.kempe_start"]
    kempe_s = busy["kempe.kempe_start"]
    return {
        "precolor.calls": count["precolor.greedy_precolor"],
        "precolor.s": busy["precolor.greedy_precolor"],
        "precolor.conflictivity_out": sum(precolor_out) / len(precolor_out) if precolor_out else 0.0,
        "conflicts.builds": count["conflicts.build"],
        "conflicts.build_s": busy["conflicts.build"],
        "conflicts.color_edge_calls": edge_calls,
        "conflicts.color_edge_s": edge_s,
        "conflicts.us_per_color_edge": 1e6 * edge_s / edge_calls if edge_calls else 0.0,
        "kempe.chain_starts": starts,
        "kempe.recolorings": recolorings,
        "kempe.chain_len_mean": recolorings / starts if starts else 0.0,
        "kempe.chain_len_max": chain_max,
        "kempe.self_s": kempe_s - edge_s,
        "kempe.recolorings_per_s": recolorings / kempe_s if kempe_s else 0.0,
        "kempe.improving_ratio": improving / starts if starts else 0.0,
        "driver.passes": count["driver.heuristic_pass"],
        "driver.passes_failed": passes_failed,
        "driver.pass_s": busy["driver.heuristic_pass"],
        "driver.loop_self_s": self_s("driver.heuristic_pass"),
        "driver.wasted_recoloring_ratio": wasted / recolorings if recolorings else 0.0,
        "driver.final_check_s": final_check_s,
        "verifier.checks": count["verifier.check_edge_coloring"],
        "verifier.check_s": busy["verifier.check_edge_coloring"],
        "graph.read_edge_list_s": busy["graph.read_edge_list"],
        "graph.read_coloring_s": busy["graph.read_coloring"],
        "cli.verify_self_s": self_s("op.cli_verify"),
    }
