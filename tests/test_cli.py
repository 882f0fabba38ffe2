import pytest

from kempecolor import odd_graph
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
