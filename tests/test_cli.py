import os
import random
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import kempecolor
from kempecolor import (
    HeuristicParams,
    RunReport,
    apply_heuristic,
    instance_seed,
    odd_graph,
    random_regular_graph,
)
from kempecolor.cli import main

K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    return str(path)


@pytest.fixture
def petersen_file(tmp_path):
    g = odd_graph(3)
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]
    path = tmp_path / "petersen.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_color_k4_writes_coloring(k4_file, tmp_path, capsys):
    out = tmp_path / "coloring.txt"
    status = main(["color", k4_file, "-D", "3", "--seed", "0", "-o", str(out)])
    assert status == 0
    assert len(out.read_text().splitlines()) == 6
    stdout = capsys.readouterr().out
    assert "success: true" in stdout
    assert "passes:" in stdout


def test_color_default_colors_is_max_degree(k4_file, capsys):
    assert main(["color", k4_file, "--seed", "0"]) == 0
    assert "colors: 3" in capsys.readouterr().out


def test_color_petersen_three_colors_fails(petersen_file, capsys):
    status = main(["color", petersen_file, "-D", "3", "--seed", "0"])
    assert status == 1
    assert "success: false" in capsys.readouterr().out


def test_color_without_seed_prints_the_seed_it_used(k4_file, capsys):
    assert main(["color", k4_file, "-D", "3"]) == 0
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("seed: ")]
    assert line[len("seed: "):].isdigit()


def test_color_too_few_colors_is_usage_error(k4_file):
    assert main(["color", k4_file, "-D", "2", "--seed", "0"]) == 2


def test_color_malformed_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert main(["color", str(bad)]) == 3


def test_color_missing_file(tmp_path):
    assert main(["color", str(tmp_path / "absent.txt")]) == 3


def test_color_non_ascii_file_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"3 2\n0 1\n1 \xe9\n")
    assert main(["color", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-ASCII byte at offset 10" in err
    assert err.count("\n") == 1


def test_verify_valid_coloring(k4_file, tmp_path):
    out = tmp_path / "coloring.txt"
    assert main(["color", k4_file, "-D", "3", "--seed", "0", "-o", str(out)]) == 0
    assert main(["verify", k4_file, str(out), "-D", "3"]) == 0


def test_verify_detects_clash(k4_file, tmp_path):
    out = tmp_path / "coloring.txt"
    main(["color", k4_file, "-D", "3", "--seed", "0", "-o", str(out)])
    lines = out.read_text().splitlines()
    u, v, c = lines[0].split()
    lines[0] = f"{u} {v} {(int(c) + 1) % 3}"
    mutated = tmp_path / "mutated.txt"
    mutated.write_text("\n".join(lines) + "\n")
    assert main(["verify", k4_file, str(mutated), "-D", "3"]) == 1


def test_verify_missing_edge_is_mismatch(k4_file, tmp_path):
    out = tmp_path / "coloring.txt"
    main(["color", k4_file, "-D", "3", "--seed", "0", "-o", str(out)])
    lines = out.read_text().splitlines()[:-1]
    short = tmp_path / "short.txt"
    short.write_text("\n".join(lines) + "\n")
    assert main(["verify", k4_file, str(short), "-D", "3"]) == 2


def test_verify_unknown_edge_is_mismatch(k4_file, tmp_path):
    col = tmp_path / "weird.txt"
    col.write_text("0 1 0\n0 2 1\n0 3 2\n1 2 2\n1 3 1\n2 0 0\n")
    # (2, 0) duplicates (0, 2)
    assert main(["verify", k4_file, str(col), "-D", "3"]) == 2


@pytest.mark.parametrize("line", ["0 9 0", "-1 2 0", "4 0 1"])
def test_verify_nonexistent_edge_is_usage_error(k4_file, tmp_path, capsys, line):
    col = tmp_path / "ghost.txt"
    col.write_text(f"{line}\n")
    assert main(["verify", k4_file, str(col), "-D", "3"]) == 2
    u, v, _ = line.split()
    err = capsys.readouterr().err
    assert err == f"error: coloring refers to nonexistent edge ({u}, {v})\n"


def test_verify_parse_error(k4_file, tmp_path):
    col = tmp_path / "bad.txt"
    col.write_text("0 1\n")
    assert main(["verify", k4_file, str(col), "-D", "3"]) == 3


def test_verify_non_ascii_coloring_is_parse_error(k4_file, tmp_path, capsys):
    col = tmp_path / "bad.txt"
    col.write_bytes(b"0 1 0\n0 2 \xff\n")
    assert main(["verify", k4_file, str(col), "-D", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-ASCII byte at offset 10" in err
    assert err.count("\n") == 1


def test_oddgraph_petersen_fails(capsys):
    status = main(["oddgraph", "3", "--seed", "0"])
    assert status == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "k", "vertices", "edges", "colors", "seed", "success", "passes",
        "wall_time_s", "final_conflictivity",
    ]
    assert lines[:6] == [
        "k: 3", "vertices: 10", "edges: 15", "colors: 3", "seed: 0", "success: false",
    ]
    assert int(lines[-1].split(": ")[1]) > 0


def test_oddgraph_k2_class_two_by_parity(capsys):
    # the triangle: 3 vertices, so no 2-coloring exists; 3 colors work
    assert main(["oddgraph", "2", "--seed", "0"]) == 1
    capsys.readouterr()
    assert main(["oddgraph", "2", "-D", "3", "--seed", "0"]) == 0
    assert "success: true" in capsys.readouterr().out


def test_oddgraph_rejects_small_k():
    assert main(["oddgraph", "1"]) == 2


def test_oddgraph_over_vertex_cap_is_usage_error(capsys):
    # O_12 has C(23, 11) = 1,352,078 vertices; it is rejected before any is built
    assert main(["oddgraph", "12"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1352078 vertices, more than the cap of 1000000" in err


def test_bench_row_counts(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    status = main(
        [
            "bench", "--degrees", "3", "--sizes", "50,100",
            "--instances", "2", "--seed", "0", "--csv", str(csv_path),
        ]
    )
    assert status == 0
    lines = csv_path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("kind,d,n,instance,seed")
    run_rows = [r for r in rows if r.startswith("run,")]
    summary_rows = [r for r in rows if not r.startswith("run,")]
    assert len(run_rows) == 4
    assert len(summary_rows) == 6  # min/avg/max per (d, n) cell


def _strip_time_columns(csv_text):
    out = []
    for line in csv_text.splitlines():
        cols = line.split(",")
        out.append(",".join(cols[:7]))  # drop wall_time_s, time_per_pass_s, rate
    return out


def test_bench_reproducible_modulo_timing(tmp_path):
    args = [
        "bench", "--degrees", "3", "--sizes", "20",
        "--instances", "3", "--seed", "42",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert _strip_time_columns(a.read_text()) == _strip_time_columns(b.read_text())


def test_bench_record_is_the_run_report_plus_its_cell():
    import kempecolor.bench as bench

    record = bench.run_instance(3, 20, 1, 42, HeuristicParams(colors=0, iteration_limit=3))
    seed = instance_seed(42, 3, 20, 1)
    graph = random_regular_graph(20, 3, random.Random(seed))
    report = apply_heuristic(graph, HeuristicParams(colors=3, seed=seed, iteration_limit=3))
    assert isinstance(record, RunReport)
    untimed = {**asdict(record), "wall_time": None}
    assert untimed == {**asdict(report), "wall_time": None, "d": 3, "n": 20, "instance": 1}


def test_bench_invalid_cell_is_usage_error(tmp_path):
    status = main(
        ["bench", "--degrees", "3", "--sizes", "5", "--instances", "1",
         "--csv", str(tmp_path / "x.csv")]
    )
    assert status == 2


@pytest.mark.parametrize(
    "flag",
    [["-R", "-1"], ["-L", "0"], ["--instances", "0"], ["--degrees", ","], ["--sizes", "12"]],
)
def test_bench_bad_limit_is_usage_error(tmp_path, capsys, monkeypatch, flag):
    import kempecolor.generators as gen

    monkeypatch.setattr(gen, "MAX_VERTICES", 10)  # so that 12 vertices are over the cap
    status = main(
        ["bench", "--degrees", "3", "--sizes", "4", "--instances", "1", *flag,
         "--csv", str(tmp_path / "x.csv")]
    )
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_bench_checks_every_cell_before_running_any(tmp_path, capsys, monkeypatch):
    # n = 12 is over the cap, so the n = 10 cell must not run either
    import kempecolor.bench as bench
    import kempecolor.generators as gen

    monkeypatch.setattr(gen, "MAX_VERTICES", 10)
    calls = []
    run_instance = bench.run_instance

    def counted(*args):
        calls.append(args)
        return run_instance(*args)

    monkeypatch.setattr(bench, "run_instance", counted)
    status = main(
        ["bench", "--degrees", "3", "--sizes", "10,12", "--instances", "2",
         "--csv", str(tmp_path / "x.csv")]
    )
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "12 vertices, more than the cap of 10" in err
    assert calls == []
    assert not (tmp_path / "x.csv").exists()


def test_bench_over_edge_cap_is_usage_error(tmp_path, capsys, monkeypatch):
    # K_4 has 6 edges, at the cap; a cubic graph on 6 vertices has 9, so
    # neither cell may run
    import kempecolor.bench as bench
    import kempecolor.generators as gen

    monkeypatch.setattr(gen, "MAX_EDGES", 6)
    calls = []
    run_instance = bench.run_instance

    def counted(*args):
        calls.append(args)
        return run_instance(*args)

    monkeypatch.setattr(bench, "run_instance", counted)
    status = main(
        ["bench", "--degrees", "3", "--sizes", "4,6", "--instances", "1",
         "--csv", str(tmp_path / "x.csv")]
    )
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "9 edges, more than the cap of 6" in err
    assert calls == []
    assert not (tmp_path / "x.csv").exists()


# ---- every failure of every command: its status, its one stderr line, and stdout

K4_REPORT = [
    "vertices: 4", "edges: 6", "colors: 3", "seed: 0", "success: true", "passes: 1",
    "wall_time_s: *", "final_conflictivity: 0",
]
ENOENT = "[Errno 2] No such file or directory: '{}'"
SWEEP = ["bench", "--degrees", "3", "--sizes", "4", "--instances", "1"]
FILES = {
    "k4.txt": K4_TEXT.encode(),
    "bad.txt": b"not a graph\n",
    "non_ascii.txt": b"3 2\n0 1\n1 \xe9\n",
    "over_cap.txt": b"1000001 0\n",
    "bad_coloring.txt": b"0 1\n",
    "non_ascii_coloring.txt": b"0 1 0\n0 2 \xff\n",
    "ghost.txt": b"0 9 0\n",
    "twice.txt": b"0 1 0\n0 2 1\n0 3 2\n1 2 2\n1 3 1\n2 0 0\n",
    "short.txt": b"0 1 0\n0 2 1\n0 3 2\n1 2 2\n1 3 1\n",
}
FAILURES = [
    # (argv, status, error message, stdout lines)
    (["color", "absent.txt"], 3, ENOENT.format("absent.txt"), []),
    (["color", "bad.txt"], 3, "header must be 'n m', got 'not a graph'", []),
    (["color", "non_ascii.txt"], 3, "non_ascii.txt: non-ASCII byte at offset 10", []),
    (["color", "over_cap.txt"], 3,
     "header declares 1000001 vertices, more than the cap of 1000000", []),
    (["color", "k4.txt", "-D", "2"], 2,
     "2 colors cannot properly color a graph with maximum degree 3", []),
    (["color", "k4.txt", "-R", "-1"], 2, "repetition limit must be non-negative", []),
    (["color", "k4.txt", "--seed", "0", "-o", "missing/out.txt"], 3,
     ENOENT.format("missing/out.txt"), K4_REPORT),
    (["bench", "--degrees", "3,x", "--sizes", "4", "--csv", "x.csv"], 2,
     "--degrees and --sizes must be comma-separated integers", []),
    (["bench", "--degrees", "3", "--sizes", "1.5", "--csv", "x.csv"], 2,
     "--degrees and --sizes must be comma-separated integers", []),
    (["bench", "--degrees", "3", "--sizes", "5", "--csv", "x.csv"], 2,
     "n*d must be even, got n=5, d=3", []),
    ([*SWEEP, "--instances", "0", "--csv", "x.csv"], 2,
     "a sweep needs a degree, a size and at least one instance", []),
    ([*SWEEP, "-L", "0", "--csv", "x.csv"], 2, "iteration limit must be positive", []),
    ([*SWEEP, "--csv", "missing/x.csv"], 3,
     ENOENT.format("missing/x.csv"), []),
    (["oddgraph", "1"], 2, "odd graph needs k >= 2, got 1", []),
    (["oddgraph", "3", "-D", "2"], 2,
     "2 colors cannot properly color a graph with maximum degree 3", []),
    (["oddgraph", "3", "-R", "-1"], 2, "repetition limit must be non-negative", []),
    (["verify", "absent.txt", "short.txt", "-D", "3"], 3,
     ENOENT.format("absent.txt"), []),
    (["verify", "k4.txt", "absent.txt", "-D", "3"], 3,
     ENOENT.format("absent.txt"), []),
    (["verify", "bad.txt", "short.txt", "-D", "3"], 3,
     "header must be 'n m', got 'not a graph'", []),
    (["verify", "k4.txt", "bad_coloring.txt", "-D", "3"], 3,
     "coloring line must be 'u v c', got '0 1'", []),
    (["verify", "k4.txt", "non_ascii_coloring.txt", "-D", "3"], 3,
     "non_ascii_coloring.txt: non-ASCII byte at offset 10", []),
    (["verify", "k4.txt", "ghost.txt", "-D", "3"], 2,
     "coloring refers to nonexistent edge (0, 9)", []),
    (["verify", "k4.txt", "twice.txt", "-D", "3"], 2, "edge (2, 0) colored twice", []),
    (["verify", "k4.txt", "short.txt", "-D", "3"], 2, "coloring covers 5 of 6 edges", []),
]


@pytest.mark.parametrize(
    "argv, status, message, stdout", FAILURES, ids=[" ".join(f[0]) for f in FAILURES]
)
def test_exit_status_table(tmp_path, monkeypatch, capsys, argv, status, message, stdout):
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == status
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    lines = [ln.split(": ")[0] + ": *" if ln.startswith("wall_time_s: ") else ln
             for ln in out.splitlines()]
    assert lines == stdout
    assert not (tmp_path / "x.csv").exists()


# (argv, exit status) for `python -m kempecolor.cli`, one per documented status
PROCESS_STATUSES = [
    (["color", "tri.txt", "-D", "3", "--seed", "0"], 0),
    (["oddgraph", "3", "--seed", "0"], 1),  # Petersen is class 2
    (["color", "tri.txt", "-D", "1"], 2),
    (["color", "missing.txt"], 3),
    (["verify", "tri.txt", "tri_colors.txt", "-D", "3"], 0),
    (["verify", "tri.txt", "tri_colors.txt", "-D", "2"], 1),
    (["verify", "tri.txt", "tri_colors.txt", "-D", "0"], 1),
    (["verify", "tri.txt", "tri_colors.txt", "-D", "-1"], 1),
]


def test_exit_statuses_of_the_module_as_a_process(tmp_path):
    (tmp_path / "tri.txt").write_text("3 3\n0 1\n1 2\n2 0\n")
    (tmp_path / "tri_colors.txt").write_text("0 1 0\n1 2 1\n2 0 2\n")
    src = str(Path(kempecolor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for argv, status in PROCESS_STATUSES:
        done = subprocess.run(
            [sys.executable, "-m", "kempecolor.cli", *argv],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
        )
        assert done.returncode == status, argv
        assert "Traceback" not in done.stderr
        # a failed search says nothing on stderr; a usage or I/O error one line
        want = "" if status < 2 else r"error: [^\n]+\n"
        assert re.fullmatch(want, done.stderr), done.stderr


@pytest.mark.parametrize("error", [
    RuntimeError("success reported for an improper coloring"), MemoryError(),
], ids=["RuntimeError", "MemoryError"])
def test_internal_fault_exits_with_status_70(k4_file, monkeypatch, capsys, error):
    import kempecolor.cli as cli

    def fault(*args):
        raise error

    monkeypatch.setattr(cli, "apply_heuristic", fault)
    assert main(["color", k4_file, "--seed", "0"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"error: internal fault: {type(error).__name__}(: [^\n]+)?\n", err), err


# wall_time_s and time_per_pass_s masked; degree 3 twice, so each of its runs
# appears twice and the final sort interleaves them
BENCH_CSV = """\
kind,d,n,instance,seed,success,passes,wall_time_s,time_per_pass_s,success_rate
run,3,20,0,16022604804082124975,1,1,*,*,
run,3,20,0,16022604804082124975,1,1,*,*,
run,3,20,1,17681975433191372,1,2,*,*,
run,3,20,1,17681975433191372,1,2,*,*,
run,3,30,0,5752200445111103681,1,1,*,*,
run,3,30,0,5752200445111103681,1,1,*,*,
run,3,30,1,17862419938000077404,1,3,*,*,
run,3,30,1,17862419938000077404,1,3,*,*,
run,4,20,0,14462943581499535040,1,1,*,*,
run,4,20,1,11820039425312454366,1,1,*,*,
run,4,30,0,11539079859727240844,1,4,*,*,
run,4,30,1,3345860301724018238,1,1,*,*,
min,3,20,,,,1,*,*,1.0000
avg,3,20,,,,1.500,*,*,1.0000
max,3,20,,,,2,*,*,1.0000
min,3,30,,,,1,*,*,1.0000
avg,3,30,,,,2.000,*,*,1.0000
max,3,30,,,,3,*,*,1.0000
min,4,20,,,,1,*,*,1.0000
avg,4,20,,,,1.000,*,*,1.0000
max,4,20,,,,1,*,*,1.0000
min,4,30,,,,1,*,*,1.0000
avg,4,30,,,,2.500,*,*,1.0000
max,4,30,,,,4,*,*,1.0000
"""


def test_bench_csv_bytes(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    status = main(["bench", "--degrees", "3,4,3", "--sizes", "20,30", "--instances", "2",
                   "--seed", "0", "--csv", str(path)])
    assert status == 0
    assert capsys.readouterr().out == f"wrote 12 run rows to {path}\n"
    masked = []
    for line in path.read_bytes().decode("ascii").split("\n"):
        cols = line.split(",")
        if len(cols) == 10 and cols[0] != "kind":
            cols[7:9] = ["*", "*"]
        masked.append(",".join(cols))
    assert "\n".join(masked) == BENCH_CSV
