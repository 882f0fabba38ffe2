import os
import subprocess
import sys
from pathlib import Path

import pytest

import kempecolor
from kempecolor import Graph, odd_graph

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),          # outer cycle
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),          # inner pentagram
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),          # spokes
]


@pytest.fixture
def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def k4():
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def petersen():
    return odd_graph(3)


@pytest.fixture
def petersen_standard():
    return Graph(10, PETERSEN_EDGES)


@pytest.fixture
def run_optimized():
    """Run a script under ``python -O`` (asserts stripped); return its stdout."""
    src = str(Path(kempecolor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def run(script: str) -> str:
        return subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        ).stdout

    return run
