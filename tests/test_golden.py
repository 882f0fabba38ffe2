"""Seeded runs must reproduce the committed colorings byte for byte.

``golden_runs.json`` holds, for each case below, the SHA-256 of the final
coloring (``format_coloring`` text), the pass count and the outcome.  A
change to the search that alters any RNG draw, adjacency order or bucket
order shows up here as a changed digest.

Regenerate (only when a change is meant to alter seeded runs, and say so):
    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from kempecolor import (
    HeuristicParams,
    apply_heuristic,
    format_coloring,
    instance_seed,
    odd_graph,
    random_regular_graph,
)

GOLDEN = Path(__file__).with_name("golden_runs.json")

# (name, graph spec, colors, run seed, precolor mode); a spec is
# ("regular", n, d, graph seed) or ("odd", k)
CASES = [
    ("cubic-200-a", ("regular", 200, 3, 1), 3, 11, "greedy"),
    ("cubic-200-b", ("regular", 200, 3, 2), 3, 12, "greedy"),
    ("cubic-400-a", ("regular", 400, 3, 3), 3, 13, "greedy"),
    ("cubic-400-b", ("regular", 400, 3, 4), 3, 14, "greedy"),
    ("cubic-600", ("regular", 600, 3, 5), 3, 15, "greedy"),
    ("cubic-800", ("regular", 800, 3, 6), 3, 16, "greedy"),
    ("cubic-1000-a", ("regular", 1000, 3, 7), 3, 17, "greedy"),
    ("cubic-1000-b", ("regular", 1000, 3, 8), 3, 18, "greedy"),
    ("cubic-300-random", ("regular", 300, 3, 9), 3, 19, "random"),
    ("d7-100-a", ("regular", 100, 7, 21), 7, 31, "greedy"),
    ("d7-100-b", ("regular", 100, 7, 22), 7, 32, "greedy"),
    ("d7-100-c", ("regular", 100, 7, 23), 7, 33, "greedy"),
    ("d15-100-a", ("regular", 100, 15, 41), 15, 51, "greedy"),
    ("d15-100-b", ("regular", 100, 15, 42), 15, 52, "greedy"),
    ("d15-100-random", ("regular", 100, 15, 43), 15, 53, "random"),
    # D = 100 > 2Δ + 32 = 62: the color index is a _SparseIndex dict
    ("d15-100-random-sparse", ("regular", 100, 15, 44), 100, 54, "random"),
    ("odd-5", ("odd", 5), 5, 61, "greedy"),
    ("odd-6", ("odd", 6), 6, 62, "greedy"),
    ("odd-7", ("odd", 7), 7, 63, "greedy"),
    ("petersen-3-a", ("odd", 3), 3, 71, "greedy"),
    ("petersen-3-b", ("odd", 3), 3, 72, "random"),
]


def build(spec):
    if spec[0] == "odd":
        return odd_graph(spec[1])
    _, n, d, graph_seed = spec
    return random_regular_graph(n, d, random.Random(instance_seed(graph_seed, d, n, 0)))


def run_case(spec, colors, seed, mode) -> dict:
    graph = build(spec)
    report = apply_heuristic(graph, HeuristicParams(colors=colors, seed=seed, precolor_mode=mode))
    digest = hashlib.sha256(format_coloring(graph).encode("ascii")).hexdigest()
    return {"sha256": digest, "passes": report.passes, "success": report.success}


def compute_all() -> dict:
    return {name: run_case(spec, colors, seed, mode) for name, spec, colors, seed, mode in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="ascii"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize("name,spec,colors,seed,mode", CASES, ids=[c[0] for c in CASES])
def test_seeded_run_matches_golden(golden, name, spec, colors, seed, mode):
    assert run_case(spec, colors, seed, mode) == golden[name]


def test_petersen_cases_fail():
    # Petersen is class 2: no 3-edge-coloring exists
    for name, spec, colors, seed, mode in CASES:
        if spec == ("odd", 3):
            assert run_case(spec, colors, seed, mode)["success"] is False


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(compute_all(), indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
