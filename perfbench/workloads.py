"""Seeded inputs, timed operations and independent output checks.

Each workload builds a pool of inputs from the workload seed (the set-up),
then runs operations j = 0, 1, ... one at a time (a closed loop with one
client).  Operation j of a solve workload colors pool graph j mod P with
run seed ``instance_seed(seed, D, n, j)``; for j < P that is exactly the
graph and run seed that ``bench.run_instance`` uses for instance j.  The
first ``fingerprint_ops`` operations form the work fingerprint, whose
counts repeat exactly under a fixed seed.

The program is only handed the generated graphs and files; every output
is checked here with code that shares nothing with ``kempecolor.verifier``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import time
from dataclasses import dataclass, field

from kempecolor import cli, driver
from kempecolor.bench import instance_seed
from kempecolor.generators import odd_graph, random_regular_graph

# Why each workload exists: see README.md in this directory.
SIZES = {
    "full": {
        "cubic-large": {"n": 10_000, "d": 3},
        "dense-d15": {"n": 2000, "d": 15},
        "class2-fail": {"n": 101, "d": 4},
        "verify-roundtrip": {"half": 10_000, "d": 15},
    },
    "toy": {
        "cubic-large": {"n": 200, "d": 3},
        "dense-d15": {"n": 40, "d": 15},
        "class2-fail": {"n": 11, "d": 4},
        "verify-roundtrip": {"half": 40, "d": 5},
    },
}
WORKLOADS = tuple(SIZES["full"])
SOLVE_POOL = 3  # random graphs per solve workload set-up
CLASS2_PASSES = 50  # the default iteration limit: every class-2 run uses all of it


@dataclass
class OpResult:
    """One timed operation and what the independent check made of it."""

    wall: float
    writes: int  # edge-color writes: m per pre-coloring or verified file, 1 per recoloring
    expected: bool  # the outcome this workload expects
    error: str | None  # set when the output is wrong
    digest: str  # SHA-256 of the coloring the operation left (or read)
    passes: int = 0
    chain_starts: int = 0
    recolorings: int = 0


@dataclass
class Inputs:
    graphs: list = field(default_factory=list)  # (graph, colors) per pool slot
    files: dict = field(default_factory=dict)  # verify-roundtrip file paths
    edges: int = 0  # edges per verified file
    gen_s: float = 0.0  # time inside kempecolor.generators


def coloring_digest(edges, colors) -> str:
    h = hashlib.sha256()
    for (u, v), c in zip(edges, colors):
        h.update(f"{u} {v} {c}\n".encode())
    return h.hexdigest()


def coloring_error(n: int, edges, colors, num_colors: int) -> str | None:
    """None iff every vertex sees distinct colors, all in [0, num_colors)."""
    seen = [set() for _ in range(n)]
    for (u, v), c in zip(edges, colors):
        if not (isinstance(c, int) and 0 <= c < num_colors):
            return f"edge ({u}, {v}) has color {c!r} outside [0, {num_colors})"
        for x in (u, v):
            if c in seen[x]:
                return f"vertex {x} sees color {c} twice"
            seen[x].add(c)
    return None


class KempeCounter:
    """Counts chain starts and recolorings through driver.kempe_start.

    One Python call per chain start and no clock reads, against about
    a millisecond of work per start, so the untraced timing keeps it.
    """

    def __init__(self):
        self.starts = 0
        self.recolorings = 0

    @contextlib.contextmanager
    def installed(self):
        original = driver.kempe_start

        def counted(*args):
            steps = original(*args)
            self.starts += 1
            self.recolorings += steps
            return steps

        driver.kempe_start = counted
        try:
            yield self
        finally:
            driver.kempe_start = original


# ---- set-up -----------------------------------------------------------------


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def setup_solve(name: str, size: str, seed: int, workdir: str) -> Inputs:
    spec = SIZES[size][name]
    n, d = spec["n"], spec["d"]
    inputs = Inputs()
    for i in range(SOLVE_POOL):
        rng = random.Random(instance_seed(seed, d, n, i))
        graph, dt = _timed(random_regular_graph, n, d, rng)
        inputs.graphs.append((graph, d))
        inputs.gen_s += dt
    if name == "class2-fail":
        graph, dt = _timed(odd_graph, 3)  # Petersen
        inputs.graphs.append((graph, 3))
        inputs.gen_s += dt
    return inputs


def setup_verify(name: str, size: str, seed: int, workdir: str) -> Inputs:
    """D edge-disjoint perfect matchings of a bipartite graph, shuffled.

    Matching k joins a_i to b_(i+k mod half) and carries color k, so the
    file is a proper D-coloring without running the solver.  The clash
    copy gives edge a_0 b_0 color 1 instead of 0.  Those two vertices
    carry the two highest labels, so the verifier, which scans vertices
    in label order, meets the clash only at the end of its scan.
    """
    spec = SIZES[size][name]
    half, d = spec["half"], spec["d"]
    n = 2 * half
    rng = random.Random(instance_seed(seed, d, n, 0))
    label = list(range(n))
    rng.shuffle(label)
    for x, want in ((0, n - 1), (half, n - 2)):
        y = label.index(want)
        label[x], label[y] = label[y], label[x]
    edges = [(label[i], label[half + (i + k) % half], k) for k in range(d) for i in range(half)]
    rng.shuffle(edges)
    clash = list(edges)
    at = clash.index((n - 1, n - 2, 0))
    clash[at] = (n - 1, n - 2, 1)

    paths = {key: os.path.join(workdir, f"{key}.txt") for key in ("graph", "valid", "clash")}
    with open(paths["graph"], "w", encoding="ascii") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v, _ in edges)
    for key, triples in (("valid", edges), ("clash", clash)):
        with open(paths[key], "w", encoding="ascii") as fh:
            fh.writelines(f"{u} {v} {c}\n" for u, v, c in triples)
    return Inputs(files={"colors": d, **paths}, edges=len(edges))


# ---- operations -------------------------------------------------------------


def op_solve(name, size, seed, inputs: Inputs, j: int, counter: KempeCounter, span) -> OpResult:
    graph, colors = inputs.graphs[j % len(inputs.graphs)]
    params = driver.HeuristicParams(colors=colors, seed=instance_seed(seed, colors, graph.n, j))
    starts, recolorings = counter.starts, counter.recolorings
    with span("op.apply_heuristic"):
        start = time.perf_counter()
        report = driver.apply_heuristic(graph, params)
        wall = time.perf_counter() - start

    edges = graph.edges()
    final = [graph.color_of_index(i) for i in range(len(edges))]
    error = None
    if name == "class2-fail":
        if report.success:
            error = f"success claimed on class-2 graph {j % len(inputs.graphs)}"
        expected = not report.success and report.passes == CLASS2_PASSES
    else:
        if report.success:
            error = coloring_error(graph.n, edges, final, colors)
        expected = report.success and error is None
    return OpResult(
        wall=wall,
        writes=report.passes * len(edges) + counter.recolorings - recolorings,
        expected=expected,
        error=error,
        digest=coloring_digest(edges, final),
        passes=report.passes,
        chain_starts=counter.starts - starts,
        recolorings=counter.recolorings - recolorings,
    )


def op_verify(name, size, seed, inputs: Inputs, j: int, counter: KempeCounter, span) -> OpResult:
    files = inputs.files
    key, status_want, text_want = (
        ("valid", 0, "coloring: valid\n") if j % 2 == 0 else ("clash", 1, "coloring: invalid\n")
    )
    argv = ["verify", files["graph"], files[key], "-D", str(files["colors"])]
    out = io.StringIO()
    with span("op.cli_verify"), contextlib.redirect_stdout(out):
        start = time.perf_counter()
        status = cli.main(argv)
        wall = time.perf_counter() - start
    error = None
    if (status, out.getvalue()) != (status_want, text_want):
        error = f"verify of the {key} file gave {status} {out.getvalue()!r}"
    with open(files[key], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return OpResult(wall=wall, writes=inputs.edges, expected=error is None, error=error, digest=digest)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    op: object
    fingerprint_ops: int


def get(name: str) -> Workload:
    if name == "verify-roundtrip":
        return Workload(name, setup_verify, op_verify, 2)
    extra = 1 if name == "class2-fail" else 0  # Petersen joins the pool
    return Workload(name, setup_solve, op_solve, SOLVE_POOL + extra)
