import csv
import json

import pytest

from lightspan.cli import main
from lightspan.graphs import parse_graph


def run(*argv):
    return main(list(argv))


def test_gen_graph_and_reparse(tmp_path):
    out = tmp_path / "g.graph"
    assert run("gen", "graph", "--n", "20", "--m", "50", "--seed", "3", "--out", str(out)) == 0
    g = parse_graph(out.read_text())
    assert g.n == 20 and g.m == 50


def test_gen_points(tmp_path):
    out = tmp_path / "p.points"
    assert run("gen", "points", "--n", "30", "--d", "2", "--seed", "1", "--out", str(out)) == 0
    header = out.read_text().splitlines()[0]
    assert header.split() == ["30", "2"]


def test_build_general_writes_spanner_stats_and_summary(tmp_path, capsys):
    g = tmp_path / "g.graph"
    h = tmp_path / "h.graph"
    stats = tmp_path / "stats.json"
    run("gen", "graph", "--n", "40", "--m", "120", "--seed", "0", "--out", str(g))
    code = run(
        "build", "general", str(g),
        "--k", "2", "--epsilon", "0.25",
        "--out", str(h), "--stats", str(stats),
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["stretch_measured"] <= summary["stretch_target"]
    blob = json.loads(stats.read_text())
    assert blob["mode"] == "general"
    assert blob["n"] == 40 and blob["m"] == 120
    assert set(blob["timings_ms"]) == {"mst", "leveling", "hierarchy", "ssa", "verify"}
    assert blob["manifest"]["subcommand"] == "build general"
    spanner = parse_graph(h.read_text())
    assert spanner.n == 40
    assert spanner.m <= 120


def test_build_output_passes_verify(tmp_path, capsys):
    g = tmp_path / "g.graph"
    h = tmp_path / "h.graph"
    run("gen", "graph", "--n", "35", "--m", "90", "--seed", "5", "--out", str(g))
    run("build", "general", str(g), "--k", "2", "--out", str(h))
    capsys.readouterr()
    assert run("verify", "graph", str(g), "--spanner", str(h)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["stretch_measured"] >= 1.0


def test_verify_rejects_non_spanner(tmp_path, capsys):
    g = tmp_path / "g.graph"
    h = tmp_path / "h.graph"
    g.write_text("3 3\n0 1 1.0\n1 2 1.0\n0 2 1.0\n")
    h.write_text("3 1\n0 1 1.0\n")
    assert run("verify", "graph", str(g), "--spanner", str(h)) == 1


def test_verify_stretch_threshold(tmp_path, capsys):
    g = tmp_path / "g.graph"
    h = tmp_path / "h.graph"
    g.write_text("3 3\n0 1 1.0\n1 2 1.0\n0 2 1.0\n")
    h.write_text("3 2\n0 1 1.0\n1 2 1.0\n")
    assert run("verify", "graph", str(g), "--spanner", str(h), "--stretch", "3.0") == 0
    capsys.readouterr()
    assert run("verify", "graph", str(g), "--spanner", str(h), "--stretch", "1.5") == 1


def test_verify_rejects_foreign_spanner_edge(tmp_path, capsys):
    g = tmp_path / "g.graph"
    h = tmp_path / "h.graph"
    g.write_text("3 2\n0 1 1.0\n1 2 1.0\n")
    h.write_text("3 1\n0 2 5.0\n")
    assert run("verify", "graph", str(g), "--spanner", str(h)) == 1
    assert "not found in graph" in capsys.readouterr().err


def test_build_trace_then_verify_trace(tmp_path, capsys):
    g = tmp_path / "g.graph"
    trace = tmp_path / "trace.json"
    run("gen", "graph", "--n", "30", "--m", "80", "--seed", "2", "--out", str(g))
    assert run(
        "build", "general", str(g), "--k", "2",
        "--out", str(tmp_path / "h.graph"), "--trace", str(trace),
    ) == 0
    capsys.readouterr()
    assert run("verify", "trace", str(trace)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_build_euclidean_from_points(tmp_path, capsys):
    p = tmp_path / "p.points"
    stats = tmp_path / "s.json"
    run("gen", "points", "--n", "50", "--seed", "4", "--out", str(p))
    code = run(
        "build", "euclidean", str(p), "--epsilon", "0.2",
        "--out", str(tmp_path / "h.graph"), "--stats", str(stats),
    )
    assert code == 0
    blob = json.loads(stats.read_text())
    assert blob["mode"] == "euclidean"
    assert blob["stretch_measured"] <= blob["stretch_target"]


def test_build_udg(tmp_path):
    p = tmp_path / "p.points"
    run("gen", "points", "--n", "150", "--seed", "6", "--out", str(p))
    code = run(
        "build", "udg", str(p), "--radius", "0.3", "--epsilon", "0.2",
        "--out", str(tmp_path / "h.graph"),
    )
    assert code == 0


def test_build_greedy(tmp_path, capsys):
    g = tmp_path / "g.graph"
    h = tmp_path / "h.graph"
    run("gen", "graph", "--n", "25", "--m", "70", "--seed", "7", "--out", str(g))
    capsys.readouterr()
    assert run("build", "greedy", str(g), "--t", "3.0", "--out", str(h)) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["stretch_measured"] <= 3.0 + 1e-9
    assert run("verify", "graph", str(g), "--spanner", str(h), "--stretch", "3.0") == 0


def test_build_greedy_has_no_trace_flag(tmp_path, capsys):
    g = tmp_path / "g.graph"
    g.write_text("3 3\n0 1 1.0\n1 2 1.0\n0 2 1.0\n")
    out, trace = tmp_path / "h.graph", tmp_path / "trace.json"
    with pytest.raises(SystemExit) as exc:
        run("build", "greedy", str(g), "--out", str(out), "--trace", str(trace))
    assert exc.value.code == 2
    assert "--trace" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()


def test_build_flags_are_per_mode(tmp_path):
    g = tmp_path / "g.graph"
    g.write_text("2 1\n0 1 1.0\n")
    for argv in (
        ("build", "general", str(g), "--radius", "0.5"),
        ("build", "minor", str(g), "--k", "3"),
        ("build", "euclidean", str(g), "--k", "3"),
        ("build", "greedy", str(g), "--epsilon", "0.1"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", "-")
        assert exc.value.code == 2


def test_high_dimension_cone_net_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "p.points"
    p.write_text("5 4\n" + "".join(f"{i} {i * i} {-i} {i % 2}\n" for i in range(5)))
    assert run("build", "euclidean", str(p), "--out", str(tmp_path / "h.graph")) == 2
    assert "grid points" in capsys.readouterr().err


def test_missing_input_is_io_error(tmp_path):
    assert run("build", "general", str(tmp_path / "nope.graph"), "--out", "-") == 3


def test_malformed_input_reports_line(tmp_path, capsys):
    g = tmp_path / "g.graph"
    g.write_text("3 2\n0 1 1.0\n1 junk\n")
    assert run("build", "general", str(g), "--out", "-") == 3
    assert "line 3" in capsys.readouterr().err


def test_bad_parameters_are_usage_errors(tmp_path):
    g = tmp_path / "g.graph"
    g.write_text("2 1\n0 1 1.0\n")
    assert run("build", "general", str(g), "--epsilon", "1.5", "--out", "-") == 2
    assert run("gen", "graph", "--n", "5", "--m", "2", "--out", "-") == 2


def test_sweep_csv_shape(tmp_path):
    out = tmp_path / "rows.csv"
    code = run(
        "sweep", "--mode", "general", "--param", "n", "--values", "32,64",
        "--seeds", "2", "--density", "4", "--k", "2", "--epsilon", "0.25",
        "--out", str(out),
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert list(rows[0]) == [
        "mode", "n", "m", "k", "epsilon",
        "stretch_measured", "lightness", "sparsity",
        "time_ms_total", "time_ms_ssa", "levels",
    ]
    assert {r["n"] for r in rows} == {"32", "64"}
    assert all(float(r["stretch_measured"]) >= 1.0 for r in rows)


def test_sweep_epsilon_param(tmp_path):
    out = tmp_path / "rows.csv"
    code = run(
        "sweep", "--mode", "euclidean", "--param", "eps", "--values", "0.1,0.2",
        "--seeds", "1", "--n", "60", "--out", str(out),
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["epsilon"] for r in rows] == ["0.1", "0.2"]
