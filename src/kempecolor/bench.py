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
from .generators import random_regular_graph

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
class BenchRecord:
    d: int
    n: int
    instance: int
    seed: int
    success: bool
    passes: int
    wall_time: float

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
    report: RunReport = apply_heuristic(graph, replace(params, colors=d, seed=seed))
    return BenchRecord(
        d=d,
        n=n,
        instance=instance,
        seed=seed,
        success=report.success,
        passes=report.passes,
        wall_time=report.wall_time,
    )


def run_sweep(
    degrees: list[int],
    sizes: list[int],
    instances: int,
    base_seed: int,
    params: HeuristicParams | None = None,
) -> list[BenchRecord]:
    """Run every (degree, size, instance); ``params`` as in ``run_instance``.

    Without ``params`` every run uses the ``HeuristicParams`` defaults.
    """
    if not (degrees and sizes and instances > 0):
        raise ParameterError("a sweep needs a degree, a size and at least one instance")
    if params is None:
        params = HeuristicParams(colors=0)
    records = []
    for d in sorted(degrees):
        for n in sorted(sizes):
            for i in range(instances):
                records.append(run_instance(d, n, i, base_seed, params))
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
    summaries = summarize(records)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for r in records:
            writer.writerow(
                {
                    "kind": "run",
                    "d": r.d,
                    "n": r.n,
                    "instance": r.instance,
                    "seed": r.seed,
                    "success": int(r.success),
                    "passes": r.passes,
                    "wall_time_s": f"{r.wall_time:.6f}",
                    "time_per_pass_s": f"{r.time_per_pass:.6f}",
                    "success_rate": "",
                }
            )
        for (d, n), stats in summaries.items():
            for kind in ("min", "avg", "max"):
                t, p, tpp = stats[kind]
                writer.writerow(
                    {
                        "kind": kind,
                        "d": d,
                        "n": n,
                        "instance": "",
                        "seed": "",
                        "success": "",
                        "passes": f"{p:.3f}" if kind == "avg" else p,
                        "wall_time_s": f"{t:.6f}",
                        "time_per_pass_s": f"{tpp:.6f}",
                        "success_rate": f"{stats['success_rate']:.4f}",
                    }
                )
