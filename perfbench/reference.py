"""A fixed pure-Python loop that gauges how fast the CPU runs right now.

The benchmark host shares its CPUs with other tenants.  The same work
can take twice as long for minutes at a time, and CPU time slows with
wall time.  Medians over one run cannot remove a slowdown that lasts the
whole run.  The loop below does the kind of work the coloring hot path
does (dict writes, list reads, a set of colors per vertex), shares no
code with kempecolor, and is timed right next to every operation.  A
run's times are scaled by ``NOMINAL_S / loop time``: they read as the
time the same work would take on the quiet host.  Measured with a
cubic-graph solve interleaved with this loop for 150 s, the raw solve
time spread by 18% (quartile distance over median) and the ratio by 4%.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.11  # one loop on the quiet host: 2 vCPU Xeon, Python 3.11.7


def loop_s() -> float:
    """Wall seconds of one run of the fixed loop."""
    start = time.perf_counter()
    rng = random.Random(1)
    adj = [{} for _ in range(3000)]
    cols = [0] * 9000
    for i in range(60_000):
        u = rng.randrange(3000)
        adj[u][rng.randrange(3000)] = i % 9000
        cols[i % 9000] = len({cols[x] for x in adj[u].values()})
    return time.perf_counter() - start
