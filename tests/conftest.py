import faulthandler
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kempecolor
from kempecolor import Graph, odd_graph

# A test still running after this many seconds is taken to hang: every
# thread's traceback is printed and the run exits with status 1.  The
# slowest test in the fast suite takes about 4 s.
WATCHDOG_SECONDS = 300
WATCHDOG_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of stderr taken while pytest captures nothing, so the traceback
    # reaches the terminal and not a capture file lost at the exit
    config.stash[WATCHDOG_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[WATCHDOG_FD])


@pytest.fixture(autouse=True)
def watchdog(request):
    """Turn a test that hangs, such as a chain that never ends, into a failed run."""
    faulthandler.dump_traceback_later(
        WATCHDOG_SECONDS, exit=True, file=request.config.stash[WATCHDOG_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


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
