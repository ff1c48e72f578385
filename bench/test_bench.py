"""Self-test of the benchmark harness on tiny instances (n = 200).

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_program()

import lightspan.pipeline as pipeline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from check import check_output, stretch_sources  # noqa: E402
from lightspan.graphs import WeightedGraph, build_mst  # noqa: E402

SPEC = json.loads((Path(run.BENCH).parent / "BENCHMARK.json").read_text())
TINY = [
    workloads.Workload("tiny-general", "general", n=200, m=800),
    workloads.Workload("tiny-euclid", "euclidean", n=200),
    workloads.Workload("tiny-udg", "udg", n=200, radius=0.25),
]


@pytest.fixture
def tiny(monkeypatch):
    for w in TINY:
        monkeypatch.setitem(workloads.WORKLOADS, w.name, w)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER


def test_setup_probe_runs():
    spec = json.dumps(dataclasses.asdict(TINY[0]))
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "setup_probe.py"), str(run.SRC), spec, "0"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert float(out.stdout) > 0.0


@pytest.mark.parametrize("name", [w.name for w in TINY])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit(tiny, name, trace):
    result = run.run_workload(name, seed=1, seconds=0.0, trace=trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.hooks_missing"]["value"] == 0
        low, high = run.HIERARCHY_COVERAGE
        assert low <= result["metrics"]["trace.hierarchy_coverage"]["value"] <= high


def _drop_one_mst_edge(build):
    def broken(self, instance, trace=False):
        res = build(self, instance, trace=trace)
        res.edge_ids.remove(build_mst(res.run_graph)[0])
        return res

    return broken


@pytest.mark.parametrize("name", [w.name for w in TINY])
def test_spanner_missing_an_mst_edge_is_a_failure(tiny, monkeypatch, name):
    # the untraced run builds in a worker process, which a monkeypatch cannot
    # reach; the traced run builds here and counts through the same Builds.record
    monkeypatch.setattr(workloads.Workload, "build", _drop_one_mst_edge(workloads.Workload.build))
    result = run.run_workload(name, seed=1, seconds=0.0, trace=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2 * workloads.INSTANCES


def test_raising_build_is_a_failure():
    builds = run.Builds(TINY[0], seed=1)
    builds.record(0, None)
    assert (builds.attempted, builds.failed) == (1, 1)


def test_broken_tracing_is_not_correct(tiny, monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + [(pipeline, "no_such_function", "graphs.normalize")])
    result = run.run_workload(TINY[0].name, seed=1, seconds=0.0, trace=True)
    assert result["failed"] == 0 and not result["correct"]


def test_check_catches_disconnection_and_stretch():
    w = TINY[0]
    g = w.make_instance(2)
    res = w.build(g)
    assert check_output(w, g, res, seed=2) == []
    cut = [i for i in res.edge_ids if 0 not in g.edges[i][:2]]
    res_cut = type(res)(res.edges, cut, res.run_graph, res.stats)
    assert any("components" in p for p in check_output(w, g, res_cut, seed=2))
    tight = dict(res.stats, stretch_target=1.0, stretch_measured=1.0)
    res_tight = type(res)(res.edges, res.edge_ids, res.run_graph, tight)
    assert any("re-measured edge stretch" in p for p in check_output(w, g, res_tight, seed=2))


@pytest.mark.parametrize("w", TINY[1:], ids=lambda w: w.mode)
def test_check_catches_a_base_that_misses_a_point_pair(monkeypatch, w):
    """A base graph without the edge of a close pair, and certification that
    does not look: every base edge is still spanned, but the pair is not."""
    p = w.make_instance(2)
    a = next(s for s in stretch_sources(p.n + 1, seed=2) if s < p.n)
    b = p.n
    p.points.append((p.points[a][0] + 1e-6, p.points[a][1]))
    base = pipeline._udg_base if w.mode == "udg" else pipeline._yao_base
    name = base.__name__

    def base_without_ab(points, cfg):
        g = base(points, cfg)
        return WeightedGraph(g.n, [e for e in g.edges if {e[0], e[1]} != {a, b}])

    monkeypatch.setattr(pipeline, name, base_without_ab)
    monkeypatch.setattr(pipeline, "_certify_geometric", lambda *args: (1.0, None))
    problems = check_output(w, p, w.build(p), seed=2)
    assert len(problems) == 1 and "re-measured point-pair stretch" in problems[0]
