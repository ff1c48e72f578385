import csv
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import lightspan
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


# hand-written inputs of 1 and 2 vertices; the 2-point udg pair lies
# within the default radius 1
_TINY_INPUTS = {
    ("graph", 1): "1 0\n",
    ("graph", 2): "2 1\n0 1 1.5\n",
    ("points", 1): "1 2\n0.5 0.5\n",
    ("points", 2): "2 2\n0 0\n0.3 0.4\n",
}


@pytest.mark.parametrize("n", [1, 2, 60])
@pytest.mark.parametrize("mode", ["general", "minor", "euclidean", "udg"])
def test_every_traced_build_passes_verify_trace(tmp_path, capsys, mode, n):
    inp, trace = tmp_path / "input", tmp_path / "trace.json"
    kind = "points" if mode in ("euclidean", "udg") else "graph"
    if n == 60:
        gen = {"general": ("graph", "--m", "150"), "minor": ("planar",)}.get(mode, ("points",))
        run("gen", *gen, "--n", "60", "--seed", "1", "--out", str(inp))
    else:
        inp.write_text(_TINY_INPUTS[kind, n])
    assert run("build", mode, str(inp), "--out", str(tmp_path / "h.graph"), "--trace", str(trace)) == 0
    capsys.readouterr()
    assert run("verify", "trace", str(trace)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    # the potential invariant is checked at every level row, whatever the size
    per_sigma = json.loads(trace.read_text())["per_sigma"]
    assert [c["name"] for c in report["checks"] if c["name"].startswith("prefix_diameter")] == [
        f"prefix_diameter[sigma={sigma},level={row['i']}]"
        for sigma in sorted(per_sigma, key=int)
        for row in per_sigma[sigma]["levels"]
    ]


@pytest.mark.parametrize(
    "case, named",
    [
        ("empty object", "per_sigma"),
        ("no n_extended", "is missing n_extended"),
        ("array", "JSON object"),
        ("not JSON", "not JSON"),
    ],
)
def test_malformed_trace_is_a_format_error(tmp_path, capsys, case, named):
    trace = tmp_path / "trace.json"
    if case == "no n_extended":
        g = tmp_path / "g.graph"
        run("gen", "graph", "--n", "12", "--m", "30", "--out", str(g))
        run("build", "general", str(g), "--out", str(tmp_path / "h.graph"), "--trace", str(trace))
        blob = json.loads(trace.read_text())
        del blob["n_extended"]
        trace.write_text(json.dumps(blob))
    else:
        trace.write_text({"empty object": "{}", "array": "[]", "not JSON": "phi 1.0\n"}[case])
    capsys.readouterr()
    assert run("verify", "trace", str(trace)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


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


def test_build_greedy_keeps_a_bridge_whose_stretch_limit_overflows(tmp_path):
    # t * 1e308 is inf: the bridge must still join, with every t
    g, h = tmp_path / "g.graph", tmp_path / "h.graph"
    g.write_text("3 2\n0 1 1\n1 2 1e308\n")
    for t in ("3", "1.5"):
        assert run("build", "greedy", str(g), "--t", t, "--out", str(h)) == 0
        assert parse_graph(h.read_text()).m == 2


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


def test_high_dimension_euclidean_build(tmp_path):
    p = tmp_path / "p.points"
    stats = tmp_path / "s.json"
    p.write_text("5 4\n" + "".join(f"{i} {i * i} {-i} {i % 2}\n" for i in range(5)))
    code = run(
        "build", "euclidean", str(p), "--out", str(tmp_path / "h.graph"), "--stats", str(stats)
    )
    assert code == 0
    blob = json.loads(stats.read_text())
    assert blob["stretch_measured"] <= blob["stretch_target"]
    # a 100-D unit-disk grid cell has 3^100 neighbour offsets; only the
    # occupied cells may be looked at
    q = tmp_path / "q.points"
    assert run("gen", "points", "--n", "6", "--d", "100", "--seed", "0", "--out", str(q)) == 0
    code = run(
        "build", "udg", str(q), "--radius", "5",
        "--out", str(tmp_path / "h.graph"), "--stats", str(stats),
    )
    assert code == 0
    blob = json.loads(stats.read_text())
    assert blob["stretch_measured"] <= blob["stretch_target"]


def test_missing_input_is_io_error(tmp_path):
    assert run("build", "general", str(tmp_path / "nope.graph"), "--out", "-") == 3


def test_malformed_input_reports_line(tmp_path, capsys):
    g = tmp_path / "g.graph"
    g.write_text("3 2\n0 1 1.0\n1 junk\n")
    assert run("build", "general", str(g), "--out", "-") == 3
    assert "line 3" in capsys.readouterr().err


def test_point_file_without_points_is_a_format_error(tmp_path, capsys):
    p = tmp_path / "p.points"
    p.write_text("0 2\n")
    assert run("build", "euclidean", str(p), "--out", "-") == 3
    err = capsys.readouterr().err
    assert err == "error: line 1: invalid sizes n=0 d=2\n"


@pytest.mark.parametrize("mode", ["euclidean", "udg"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_coordinates_are_usage_errors(tmp_path, capsys, mode, value):
    p = tmp_path / "p.points"
    p.write_text(f"3 2\n0 0\n{value} 1\n1 1\n")
    assert run("build", mode, str(p), "--out", "-") == 2
    assert "non-finite coordinate" in capsys.readouterr().err


def test_bad_parameters_are_usage_errors(tmp_path):
    g = tmp_path / "g.graph"
    g.write_text("2 1\n0 1 1.0\n")
    assert run("build", "general", str(g), "--epsilon", "1.5", "--out", "-") == 2
    assert run("gen", "graph", "--n", "5", "--m", "2", "--out", "-") == 2


@pytest.mark.parametrize("jitter", ["-2", "nan", "inf"])
def test_gen_grid_rejects_bad_jitter(tmp_path, capsys, jitter):
    out = tmp_path / "grid.graph"
    code = run("gen", "grid", "--rows", "3", "--cols", "3", "--jitter", jitter, "--out", str(out))
    assert code == 2
    assert "jitter must be a finite float >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bounds", [("1", "inf"), ("inf", "inf"), ("nan", "2"), ("0", "1"), ("3", "2")])
def test_gen_graph_rejects_bad_weight_range(tmp_path, capsys, bounds):
    # an infinite bound used to write inf (or nan) weights and exit 0
    out = tmp_path / "g.graph"
    code = run("gen", "graph", "--n", "4", "--m", "4", "--w-lo", bounds[0], "--w-hi", bounds[1],
               "--out", str(out))
    assert code == 2
    assert "weight range must be finite with 0 < w_lo <= w_hi" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_stretch_bounds_are_usage_errors(tmp_path, capsys, value):
    g = tmp_path / "g.graph"
    h = tmp_path / "h.graph"
    g.write_text("3 3\n0 1 1.0\n1 2 1.0\n0 2 1.0\n")
    h.write_text("3 2\n0 1 1.0\n1 2 1.0\n")
    assert run("build", "greedy", str(g), "--t", value, "--out", str(tmp_path / "out.graph")) == 2
    assert f"stretch must be a finite float >= 1, got {value}" in capsys.readouterr().err
    assert run("verify", "graph", str(g), "--spanner", str(h), "--stretch", value) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--stretch must be finite, got {value}" in captured.err


def test_overflowing_weight_ratio_is_a_usage_error(tmp_path, capsys):
    g = tmp_path / "g.graph"
    g.write_text("3 3\n0 1 1e-300\n1 2 1e300\n0 2 1e300\n")
    assert run("build", "general", str(g), "--out", "-") == 2
    assert "weight ratio exceeds the float range" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["build", "verify", "build-halved"])
def test_an_mst_weight_that_overflows_is_a_usage_error(tmp_path, capsys, verb):
    # build-halved: normalize halves every weight, so the MST weight fits a
    # float until the stats multiply it back
    g, stats = tmp_path / "g.graph", tmp_path / "stats.json"
    g.write_text(f"4 3\n0 1 {2 if verb == 'build-halved' else 1}\n1 2 1e308\n2 3 1e308\n")
    if verb == "verify":
        assert run("verify", "graph", str(g), "--spanner", str(g)) == 2
    else:
        assert run("build", "general", str(g), "--out", "-", "--stats", str(stats)) == 2
        assert not stats.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: MST weight overflows a float")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("psi", ["1e-300", "1e-17", "1.1e-16", "5e-324"])
def test_a_psi_below_float_resolution_is_a_usage_error(tmp_path, capsys, psi):
    # 1 + psi rounds to 1, so every weight class would share one threshold
    g = tmp_path / "g.graph"
    assert run("gen", "graph", "--n", "20", "--m", "50", "--out", str(g)) == 0
    capsys.readouterr()
    assert run("build", "general", str(g), "--psi", psi, "--out", "-") == 2
    assert run("sweep", "--param", "n", "--values", "20", "--seeds", "1", "--psi", psi) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 2
    assert captured.err.count("error: psi must be in (0,1] with 1 + psi > 1") == 2


def _cli_in_2gb(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter with 2 GB of address space and a 60 s
    timeout, so that a build which tries to exhaust memory fails the test
    instead of the machine."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(lightspan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "lightspan.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )


@pytest.mark.parametrize("eps", ["1e-6", "1e-300"])
def test_tiny_epsilon_is_refused_before_subdividing(tmp_path, eps):
    # 5 collinear points at eps 1e-6 would cut the MST into about 5 million
    # pieces, and at 1e-300 into about 1e300
    p = tmp_path / "p.points"
    p.write_text("5 2\n" + "".join(f"{i} 0\n" for i in range(5)))
    out = _cli_in_2gb("build", "euclidean", str(p), "--epsilon", eps, "--out", "-")
    assert out.returncode == 2, out.stderr
    assert "subdivided MST would have more than" in out.stderr


@pytest.mark.parametrize("knob", [("--psi", "1e-9"), ("--epsilon", "0.999999")])
def test_a_hopeless_class_table_is_refused_up_front(tmp_path, knob):
    # psi 1e-9 asks for about 1.4e9 weight classes; eps 0.999999 for about
    # 1.9e6 levels on this graph
    g = tmp_path / "g.graph"
    assert run("gen", "graph", "--n", "50", "--m", "200", "--seed", "0", "--out", str(g)) == 0
    out = _cli_in_2gb("build", "general", str(g), *knob, "--out", "-")
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert "exceed the budget of" in out.stderr


@pytest.mark.parametrize("mode", ["euclidean", "udg"])
def test_points_whose_distances_overflow_are_refused(tmp_path, capsys, mode):
    p = tmp_path / "p.points"
    p.write_text("3 2\n1e308 0\n-1e308 0\n0 1\n")
    assert run("build", mode, str(p), "--out", "-") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "point distances overflow a float" in captured.err


@pytest.mark.parametrize("command", ["build", "sweep"])
def test_a_radius_too_small_for_the_grid_is_a_usage_error(tmp_path, capsys, command):
    # 1 / 1e-320 overflows a float, so the point has no grid cell
    p = tmp_path / "p.points"
    p.write_text("3 2\n0 0\n1 0\n2 0\n")
    if command == "build":
        assert run("build", "udg", str(p), "--radius", "1e-320", "--out", "-") == 2
    else:
        argv = ("--mode", "udg", "--param", "n", "--values", "20", "--seeds", "1", "--radius", "1e-320")
        assert run("sweep", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: radius 1e-320 is too small: a coordinate over it overflows a float\n"
    assert run("build", "udg", str(p), "--radius", "inf", "--out", "-") == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--param", "n", "--values", "inf"), "--param n needs a finite integer, got 'inf'"),
        (("--param", "n", "--values", "1e400"), "--param n needs a finite integer, got '1e400'"),
        (("--param", "eps", "--values", "0.1,inf"), "--param eps needs a finite float, got 'inf'"),
        (("--param", "k", "--values", "2.5", "--n", "20", "--m", "50"),
         "--param k needs a finite integer, got '2.5'"),
        (("--param", "m", "--values", "5", "--density", "0"),
         "--density must be a positive finite float, got 0.0"),
        (("--param", "n", "--values", "20", "--density", "inf"),
         "--density must be a positive finite float, got inf"),
        (("--param", "m", "--values", "5", "--density", "1e-320"),
         "--values 5 at --density 1e-320 overflows a float"),
    ],
    ids=["n-inf", "n-1e400", "eps-inf", "k-2.5", "density-0", "density-inf", "m-over-density"],
)
def test_bad_sweep_values_are_usage_errors(capsys, argv, message):
    assert run("sweep", "--seeds", "1", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [("build", "general"), ("build", "minor"), ("build", "greedy"), ("verify", "graph")],
    ids=["general", "minor", "greedy", "verify"],
)
def test_a_graph_with_too_few_edges_is_refused_before_allocating(tmp_path, argv):
    # 10^9 vertices and no edges: per-vertex arrays would take tens of GB
    g = tmp_path / "huge.graph"
    g.write_text("1000000000 0\n")
    extra = ("--spanner", str(g)) if argv[0] == "verify" else ("--out", "-")
    out = _cli_in_2gb(*argv, str(g), *extra)
    assert out.returncode == 2, out.stderr
    assert out.stderr == "error: graph has more than one component (1000000000 vertices, 0 edges)\n"


_SWEEP_HUGE_N = ("sweep", "--param", "n", "--values", "1000000000", "--seeds", "1")


@pytest.mark.parametrize(
    "argv, count",
    [
        (_SWEEP_HUGE_N + ("--mode", "euclidean"), 10**9),
        (_SWEEP_HUGE_N + ("--mode", "general"), 10**9),
        (("sweep", "--param", "n", "--values", "20,1000000000", "--seeds", "1"), 10**9),
        (("gen", "points", "--n", "1000000000"), 10**9),
        (("gen", "grid", "--rows", "100000", "--cols", "100000"), 10**10),
    ],
    ids=["sweep-euclidean", "sweep-general", "sweep-second-value", "gen-points", "gen-grid"],
)
def test_an_instance_no_build_takes_is_refused_before_allocating(argv, count):
    # subdivide_mst refuses more than 10^6 vertices, so generating more
    # would only exhaust memory; a sweep checks every value before its first run
    out = _cli_in_2gb(*argv)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr == f"error: {count} vertices are more than the 1000000 a build takes\n"


@pytest.mark.parametrize("mode", ["general", "minor"])
def test_built_edges_carry_the_input_weights(tmp_path, capsys, mode):
    # normalised by the least weight 3.0 and scaled back, 3.1 would print as
    # 3.1000000000000005
    g = tmp_path / "w.graph"
    g.write_text("3 2\n0 1 3.0\n1 2 3.1\n")
    assert run("build", mode, str(g), "--out", "-") == 0
    assert capsys.readouterr().out == "3 2\n0 1 3.0\n1 2 3.1\n"


def test_a_trace_with_fewer_members_than_vertices_is_refused_before_allocating(tmp_path):
    # listing range(10^12) to compare with the members would take terabytes
    level = {"i": 1, "scale": 1.0, "members": [], "potentials": [], "h_i": [],
             "local_change": [], "corrected_change": []}
    blob = {"n_extended": 10**12, "mst_weight": 1.0, "edges": [], "sub_tree_edges": [],
            "light_ids": [], "per_sigma": {"0": {"final_phi": 0.0, "levels": [level]}}}
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(blob))
    out = _cli_in_2gb("verify", "trace", str(trace))
    assert out.returncode == 3, out.stderr
    assert out.stderr.count("\n") == 1
    assert "levels.0.members must be a partition of the extended vertices" in out.stderr


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


def test_sweep_k_outside_general_mode_is_a_usage_error(capsys):
    for mode in ("euclidean", "udg", "minor"):
        code = run("sweep", "--mode", mode, "--param", "k", "--values", "2,3", "--seeds", "1", "--n", "20")
        assert code == 2
        assert "--param k" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("per_sigma", [], "per_sigma must be an object"),
        ("final_phi", "x", "with final_phi"),
        ("members", [[0, "a"]], "levels.0.members must be"),
        ("edges", [[0, 1]], "edges must be"),
        ("overlap", None, "levels.0.members must be a partition of the extended vertices"),
    ],
)
def test_trace_with_a_wrong_nested_shape_is_a_format_error(tmp_path, capsys, field, value, named):
    g, trace = tmp_path / "g.graph", tmp_path / "trace.json"
    run("gen", "graph", "--n", "12", "--m", "30", "--out", str(g))
    run("build", "general", str(g), "--out", str(tmp_path / "h.graph"), "--trace", str(trace))
    blob = json.loads(trace.read_text())
    cls = next(iter(blob["per_sigma"].values()))
    if field == "final_phi":
        cls[field] = value
    elif field == "members":
        cls["levels"][0][field] = value
    elif field == "overlap":
        # a member list that repeats a vertex of another cluster
        members = cls["levels"][0]["members"]
        members[0].append(members[1][0])
    else:
        blob[field] = value
    trace.write_text(json.dumps(blob))
    capsys.readouterr()
    assert run("verify", "trace", str(trace)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err

