"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from kempecolor import cli, driver

HERE = Path(__file__).resolve().parent


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def patched_attributes():
    return {(owner.__name__, attr): owner.__dict__[attr] for owner, attr, _ in tracer.PATCHED}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_reports_every_metric(name, trace):
    before = patched_attributes()
    result, details = run.run_workload(name, seed=0, seconds=0.05, trace=trace, size="toy")
    assert patched_attributes() == before  # every wrapper was taken out again

    want = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {k: {"value": result["metrics"][k]["value"], "unit": u} for k, u in want.items()}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert details["errors"] == []
    if trace:
        assert details["round_wall_s"]["traced"] > 0
        assert set(details["fingerprint"]) == {"coloring_sha256", "passes", "chain_starts", "recolorings"}
    else:
        assert result["metrics"]["ok_rate"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_names_match_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_counts_match_layers():
    result, details = run.run_workload("cubic-large", seed=3, seconds=0.05, trace=True, size="toy")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    fp = details["fingerprint"]
    assert m["kempe.recolorings"] == m["conflicts.color_edge_calls"] == fp["recolorings"]
    assert m["kempe.chain_starts"] == fp["chain_starts"]
    assert m["driver.passes"] == m["precolor.calls"] == fp["passes"]


def test_changed_work_is_flagged_not_failed(tmp_path, monkeypatch):
    _, details = run.run_workload("dense-d15", seed=2, seconds=0.05, trace=False, size="toy")
    fp = dict(details["fingerprint"])
    path = tmp_path / "fingerprints.json"
    monkeypatch.setattr(run, "FINGERPRINTS", path)
    path.write_text(json.dumps({"toy": {"dense-d15": {"2": fp}}}))
    assert run.recorded_status("toy", "dense-d15", 2, fp) == "match"
    assert run.recorded_status("toy", "dense-d15", 3, fp) == "not recorded"
    fp["recolorings"] += 1
    assert run.recorded_status("toy", "dense-d15", 2, fp) == "work changed"


def _corrupt_coloring(real):
    def wrong(graph, params):
        report = real(graph, params)
        u, v = graph.edges()[0]
        w = next(x for x in graph.neighbors(u) if x != v)
        graph.set_edge_color(u, v, graph.edge_color(u, w))
        return report

    return wrong


def _claim_success(real):
    def wrong(graph, params):
        report = real(graph, params)
        report.success = True
        return report

    return wrong


def _accept_everything(real):
    def wrong(argv):
        real(argv)
        print("coloring: valid")
        return 0

    return wrong


@pytest.mark.parametrize(
    "name, owner, attr, corrupt",
    [
        ("cubic-large", driver, "apply_heuristic", _corrupt_coloring),
        ("class2-fail", driver, "apply_heuristic", _claim_success),
        ("verify-roundtrip", cli, "main", _accept_everything),
    ],
)
def test_wrong_output_fails_the_run(monkeypatch, name, owner, attr, corrupt):
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    result, details = run.run_workload(name, seed=0, seconds=0.05, trace=False, size="toy")
    assert not result["correct"]
    assert details["errors"]


def test_all_prints_each_workload_and_exits_zero():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "0.05", "--trace", "0", "--size", "toy"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    for name in workloads.WORKLOADS:
        for metric in [*run.END_TO_END_UNITS, "wall_s"]:
            assert any(ln.split()[:2] == [name, metric] for ln in lines)
    assert json.loads(lines[-1])["correct"] is True


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cubic-large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
