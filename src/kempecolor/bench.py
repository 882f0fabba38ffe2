"""Benchmark sweep over random regular graphs, with CSV output.

Each (degree, size) cell runs a fixed number of independent instances.
Per-instance seeds are derived from the base seed, the cell, and the
instance index, so any subset of the sweep reproduces identically.
"""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass, replace

from .driver import HeuristicParams, ParameterError, RunReport, apply_heuristic
from .generators import check_regular_parameters, random_regular_graph

CSV_FIELDS = [
    "kind",
    "d",
    "n",
    "instance",
    "seed",
    "success",
    "passes",
    "wall_time_s",
    "time_per_pass_s",
    "success_rate",
]


@dataclass
class BenchRecord(RunReport):
    """One run's report plus the cell and instance it ran."""

    d: int
    n: int
    instance: int

    @property
    def time_per_pass(self) -> float:
        return self.wall_time / self.passes


def instance_seed(base_seed: int, d: int, n: int, instance: int) -> int:
    """Deterministic, platform-independent per-instance seed."""
    digest = hashlib.sha256(f"{base_seed}:{d}:{n}:{instance}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_instance(
    d: int, n: int, instance: int, base_seed: int, params: HeuristicParams
) -> BenchRecord:
    """Color one random d-regular graph on n vertices with d colors.

    ``params`` gives the limits and the pre-coloring mode; its colors and
    seed are replaced by d and the instance's own seed.
    """
    seed = instance_seed(base_seed, d, n, instance)
    rng = random.Random(seed)
    graph = random_regular_graph(n, d, rng)
    # wall time covers the coloring run only, not generation or I/O
    report = apply_heuristic(graph, replace(params, colors=d, seed=seed))
    return BenchRecord(**vars(report), d=d, n=n, instance=instance)


def run_sweep(
    degrees: list[int],
    sizes: list[int],
    instances: int,
    base_seed: int,
    params: HeuristicParams = HeuristicParams(colors=0),
) -> list[BenchRecord]:
    """Run every (degree, size, instance); ``params`` as in ``run_instance``.

    Without ``params`` every run uses the ``HeuristicParams`` defaults.
    Every (degree, size) cell is checked before the first instance runs.
    Instance i of every cell runs before instance i + 1 of any, so host
    drift hits all cells alike; records are sorted by (degree, size, instance).
    """
    if not (degrees and sizes and instances > 0):
        raise ParameterError("a sweep needs a degree, a size and at least one instance")
    cells = [(d, n) for d in sorted(degrees) for n in sorted(sizes)]
    for d, n in cells:
        check_regular_parameters(n, d)
    records = [
        run_instance(d, n, i, base_seed, params) for i in range(instances) for d, n in cells
    ]
    records.sort(key=lambda r: (r.d, r.n, r.instance))
    return records


def summarize(records: list[BenchRecord]) -> dict[tuple[int, int], dict]:
    """Per-(d, n) min/avg/max of time, passes, time-per-pass, plus success rate."""
    cells: dict[tuple[int, int], list[BenchRecord]] = {}
    for r in records:
        cells.setdefault((r.d, r.n), []).append(r)
    out = {}
    for key, rs in sorted(cells.items()):
        times = [r.wall_time for r in rs]
        passes = [r.passes for r in rs]
        tpp = [r.time_per_pass for r in rs]
        out[key] = {
            "min": (min(times), min(passes), min(tpp)),
            "avg": (
                sum(times) / len(rs),
                sum(passes) / len(rs),
                sum(tpp) / len(rs),
            ),
            "max": (max(times), max(passes), max(tpp)),
            "success_rate": sum(r.success for r in rs) / len(rs),
        }
    return out


def write_csv(path: str, records: list[BenchRecord]) -> None:
    """One row per run, then min/avg/max rows per (d, n) cell; columns as in CSV_FIELDS."""
    summaries = summarize(records)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for r in records:
            writer.writerow(["run", r.d, r.n, r.instance, r.seed, int(r.success), r.passes,
                             f"{r.wall_time:.6f}", f"{r.time_per_pass:.6f}", ""])
        for (d, n), stats in summaries.items():
            for kind in ("min", "avg", "max"):
                t, p, tpp = stats[kind]
                writer.writerow([kind, d, n, "", "", "", f"{p:.3f}" if kind == "avg" else p,
                                 f"{t:.6f}", f"{tpp:.6f}", f"{stats['success_rate']:.4f}"])
