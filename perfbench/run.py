"""kempecolor benchmark: seeded workloads, checked outputs, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cubic-large --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` times the operations with tracing off and reports the
end-to-end metrics; ``--trace 1`` replays the fingerprint operations
untraced, then traced, checks that both did identical work, and reports
the per-layer metrics.  ``--workload all`` runs each workload in a fresh
process and prints a table.  The last line of standard output is always
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it holds the details: timings with sample counts, the
work fingerprint and the environment.  The exit status is 0 only when
every output was correct.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "kempecolor" / "__init__.py").is_file():
    sys.exit(f"perfbench: no kempecolor package under {SRC}; run from the root of a full checkout")
sys.path.insert(0, str(SRC))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # at least this many set-ups, and at least SETUP_SECONDS of them
SETUP_SECONDS = 1.0
OUT_DIR = ROOT / ".perfbench"  # scratch files and spans; never committed
FINGERPRINTS = HERE / "fingerprints.json"

END_TO_END_UNITS = {
    "us_per_color_write": "us",
    "setup_s": "s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "generators.gen_s": "s",
    "precolor.calls": "count",
    "precolor.s": "s",
    "precolor.conflictivity_out": "count",
    "conflicts.builds": "count",
    "conflicts.build_s": "s",
    "conflicts.color_edge_calls": "count",
    "conflicts.color_edge_s": "s",
    "conflicts.us_per_color_edge": "us",
    "kempe.chain_starts": "count",
    "kempe.recolorings": "count",
    "kempe.chain_len_mean": "count",
    "kempe.chain_len_max": "count",
    "kempe.self_s": "s",
    "kempe.recolorings_per_s": "1/s",
    "kempe.improving_ratio": "ratio",
    "driver.passes": "count",
    "driver.passes_failed": "count",
    "driver.pass_s": "s",
    "driver.loop_self_s": "s",
    "driver.wasted_recoloring_ratio": "ratio",
    "driver.final_check_s": "s",
    "verifier.checks": "count",
    "verifier.check_s": "s",
    "graph.read_edge_list_s": "s",
    "graph.read_coloring_s": "s",
    "cli.verify_self_s": "s",
}


def no_span(name):
    return contextlib.nullcontext()


def fingerprint(ops) -> dict:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.digest.encode())
    return {
        "coloring_sha256": h.hexdigest(),
        "passes": sum(op.passes for op in ops),
        "chain_starts": sum(op.chain_starts for op in ops),
        "recolorings": sum(op.recolorings for op in ops),
    }


def timing(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples above it."""
    out = {"median": statistics.median(values), "count": len(values), "max": max(values)}
    if len(values) >= 20:
        q = int(100 * (1 - 10 / len(values)))
        out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
    return out


def recorded_status(size: str, name: str, seed: int, fp: dict) -> str:
    with open(FINGERPRINTS, encoding="ascii") as fh:
        want = json.load(fh).get(size, {}).get(name, {}).get(str(seed))
    if want is None:
        return "not recorded"
    return "match" if want == fp else "work changed"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="ascii").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def run_rounds(wl, seed, size, inputs, counter, seconds, span=no_span, on_round=None):
    """Repeat the fingerprint operations until the time is up (at least once)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if on_round:
            on_round()
        rounds.append([wl.op(wl.name, size, seed, inputs, j, counter, span) for j in range(wl.fingerprint_ops)])
    return rounds


def untraced(wl, seed, size, seconds, inputs, setup):
    """Closed loop over operations 0, 1, ..., each between two reference loops.

    Times are scaled to the quiet host's speed by the mean of the two
    reference loops around each operation (see reference.py).
    """
    counter = workloads.KempeCounter()
    refs = [reference.loop_s()]
    ops = []
    with counter.installed():
        start = time.perf_counter()
        while len(ops) < wl.fingerprint_ops or time.perf_counter() - start < seconds:
            ops.append(wl.op(wl.name, size, seed, inputs, len(ops), counter, no_span))
            refs.append(reference.loop_s())
    raw = [1e6 * op.wall / op.writes for op in ops]
    scale = [2 * reference.NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    setup_times, setup_scale = setup
    metrics = {
        "us_per_color_write": statistics.median(r * k for r, k in zip(raw, scale)),
        "setup_s": statistics.median(setup_times) * setup_scale,
        "ok_rate": sum(op.expected for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    fp = fingerprint(ops[: wl.fingerprint_ops])
    details = {
        "wall_s": timing([op.wall for op in ops]),
        "setup_s": timing(setup_times),
        "unscaled": {"us_per_color_write": statistics.median(raw), "setup_s": statistics.median(setup_times)},
        "reference_loop_s": timing(refs),
        "fingerprint": fp,
        "fingerprint_status": recorded_status(size, wl.name, seed, fp),
    }
    return ops, metrics, details, []


def traced(wl, seed, size, seconds, inputs, gen_times):
    counter = workloads.KempeCounter()
    with counter.installed():
        plain = run_rounds(wl, seed, size, inputs, counter, seconds / 2)
    trace = tracer.Tracer()
    firsts = []
    with trace.installed(), counter.installed():
        spanned = run_rounds(
            wl, seed, size, inputs, counter, seconds / 2, trace.span,
            on_round=lambda: firsts.append(len(trace.spans)),
        )
    trace.write(str(OUT_DIR / f"spans-{wl.name}-{seed}.jsonl"))

    errors = []
    fps = [fingerprint(r) for r in plain + spanned]
    if any(fp != fps[0] for fp in fps[: len(plain)]):
        errors.append("untraced rounds of the same operations did different work")
    if any(fp != fps[0] for fp in fps[len(plain):]):
        errors.append("tracing changed the work: coloring or counts differ from the untraced run")

    bounds = firsts + [len(trace.spans)]
    per_round = [tracer.layer_metrics(trace.spans[:b], a) for a, b in zip(bounds, bounds[1:])]
    metrics = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
    metrics["generators.gen_s"] = statistics.median(gen_times)
    plain_s = statistics.median(sum(op.wall for op in r) for r in plain)
    traced_s = statistics.median(sum(op.wall for op in r) for r in spanned)
    details = {
        "round_wall_s": {"untraced": plain_s, "traced": traced_s, "rounds": [len(plain), len(spanned)]},
        "trace_overhead_s": traced_s - plain_s,
        "fingerprint": fps[0],
        "fingerprint_status": recorded_status(size, wl.name, seed, fps[0]),
    }
    return [op for r in plain + spanned for op in r], metrics, details, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Set up, measure and check one workload; returns (result, details)."""
    wl = workloads.get(name)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        setup_times, gen_times = [], []
        before = reference.loop_s()
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            inputs = None  # let the previous copy go before timing the next
            start = time.perf_counter()
            inputs = wl.setup(name, size, seed, workdir)
            setup_times.append(time.perf_counter() - start)
            gen_times.append(inputs.gen_s)
        setup_scale = 2 * reference.NOMINAL_S / (before + reference.loop_s())
        if trace:
            ops, metrics, details, errors = traced(wl, seed, size, seconds, inputs, gen_times)
            units = PER_LAYER_UNITS
        else:
            ops, metrics, details, errors = untraced(wl, seed, size, seconds, inputs, (setup_times, setup_scale))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [op.error for op in ops if op.error] + errors
    details = {"workload": name, "seed": seed, "size": size, "trace": int(trace), **details,
               "errors": errors[:10], "environment": environment()}
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(not op.expected for op in ops),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, details


def run_all(args) -> int:
    """Each workload in a fresh process, then one table and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            combined["correct"] = False
            continue
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows = dict(result["metrics"])
        if args.trace:
            rows["trace_overhead_s"] = {"value": details["trace_overhead_s"], "unit": "s"}
        else:
            rows["wall_s"] = {"value": details["wall_s"]["median"],
                              "unit": f"s (median of {details['wall_s']['count']})"}
        for key, m in rows.items():
            print(f"{name:18} {key:32} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
        print(f"{name:18} {'fingerprint':32} {details['fingerprint_status']}: {details['fingerprint']}")
        for err in details["errors"]:
            print(f"{name:18} ERROR {err}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'toy' is for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    if details["fingerprint_status"] == "work changed":
        print(f"perfbench: work changed on {args.workload} seed {args.seed}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
