import gc
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import lightspan
import lightspan.pipeline as pipeline
import oracles
from conftest import weighted_graph
from lightspan.generate import planar_triangulation, random_connected_graph, uniform_points
from lightspan.graphs import (
    SUBDIVISION_VERTEX_BUDGET,
    DisconnectedGraph,
    PointSet,
    WeightedGraph,
    build_mst,
    normalize,
    subdivide_mst,
)
from lightspan.pipeline import (
    S_GENERAL,
    S_GEOM,
    S_MINOR,
    PipelineConfig,
    _cone_angle,
    _neighbours,
    _rep_positions,
    _yao_base,
    build_hi,
    light_spanner_general,
    light_spanner_geometric,
    light_spanner_minor_free,
    stretch_rho,
)
from lightspan.ssa import SsaOutput, cone_selector
from test_clustering import make_cg

STATS_KEYS = {
    "mode",
    "n",
    "m",
    "epsilon_user",
    "epsilon_internal",
    "k",
    "stretch_target",
    "stretch_measured",
    "stretch_witness_edge",
    "lightness",
    "sparsity",
    "mst_weight",
    "seed",
    "strict",
    "psi",
    "timings_ms",
    "levels",
}

LEVEL_KEYS = {"sigma", "i", "clusters", "class_edges", "h_i_edges", "phi", "delta", "degenerate"}


# ---------------------------------------------------------------------------
# configuration arithmetic


def test_mode_constants():
    assert S_GENERAL == 125.0
    assert S_GEOM == 2384.0
    assert S_MINOR == 0.0
    assert stretch_rho(S_GENERAL) == 310.0
    assert stretch_rho(S_GEOM) == 2508.0
    assert stretch_rho(S_MINOR) == 310.0


def test_internal_eps_defaults_to_user_eps():
    cfg = PipelineConfig(mode="general", eps_user=0.25)
    assert cfg.eps() == 0.25


def test_strict_mode_scales_eps_down():
    cfg = PipelineConfig(mode="general", eps_user=0.25, strict=True)
    assert cfg.eps() == min(0.25 / stretch_rho(S_GENERAL), 1.0 / 256.0)
    geo = PipelineConfig(mode="euclidean", eps_user=0.5, strict=True)
    assert geo.eps() == min(0.5 / stretch_rho(S_GEOM), 1.0 / 256.0)


def test_explicit_internal_eps_wins():
    cfg = PipelineConfig(mode="general", eps_user=0.25, eps_internal=0.05)
    assert cfg.eps() == 0.05


def test_stretch_target_general():
    cfg = PipelineConfig(mode="general", k=2, eps_user=0.25)
    assert math.isclose(cfg.stretch_target(), 3.0 * (1.0 + 310.0 * 0.25))


def test_stretch_target_geometric_composes_base_stretch():
    cfg = PipelineConfig(mode="euclidean", eps_user=0.01)
    assert math.isclose(cfg.stretch_target(), (1.0 + cfg.eps_base()) * (1.0 + 0.01) * (1.0 + 2508.0 * 0.01))


def test_eps_base_is_capped():
    assert PipelineConfig(mode="euclidean", eps_user=0.5).eps_base() == 0.125
    assert PipelineConfig(mode="euclidean", eps_user=0.05).eps_base() == 0.05


def test_validate_rejects_bad_configs():
    with pytest.raises(ValueError):
        PipelineConfig(mode="nope").validate()
    with pytest.raises(ValueError):
        PipelineConfig(mode="general", k=1).validate()
    with pytest.raises(ValueError):
        PipelineConfig(mode="udg", radius=0.0).validate()
    with pytest.raises(ValueError):
        PipelineConfig(mode="general", eps_user=1.5).validate()


@pytest.mark.parametrize("m", [29, 90])
def test_strict_mode_refuses_a_large_internal_eps_up_front(m):
    # a tree has no level to cluster, so only validate can refuse it
    g = random_connected_graph(30, m, 0)
    with pytest.raises(ValueError, match=r"strict mode needs eps <= 0\.00390625, got 0\.5"):
        light_spanner_general(g, PipelineConfig(strict=True, eps_internal=0.5))
    PipelineConfig(strict=True, eps_internal=0.00390625).validate()


def test_mode_guards():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        light_spanner_general(g, PipelineConfig(mode="euclidean"))
    with pytest.raises(ValueError):
        light_spanner_minor_free(g, PipelineConfig(mode="general"))
    p = PointSet(2, [(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        light_spanner_geometric(p, PipelineConfig(mode="general"))


# ---------------------------------------------------------------------------
# end-to-end contracts, graph modes


def test_stats_schema_general():
    g = weighted_graph(40, 120, seed=0, lo=1.0, hi=500.0)
    res = light_spanner_general(g, PipelineConfig(mode="general", k=2, eps_user=0.25))
    assert set(res.stats) == STATS_KEYS
    assert set(res.stats["timings_ms"]) == {"mst", "leveling", "hierarchy", "ssa", "verify"}
    for row in res.stats["levels"]:
        assert set(row) == LEVEL_KEYS
    assert res.stats["k"] == 2
    assert res.stats["mode"] == "general"


def test_general_stretch_within_target():
    for seed in range(5):
        g = weighted_graph(50, 160, seed, lo=1.0, hi=1000.0)
        for k in (2, 3):
            cfg = PipelineConfig(mode="general", k=k, eps_user=0.25, seed=seed)
            res = light_spanner_general(g, cfg)
            assert res.stats["stretch_measured"] <= cfg.stretch_target() * (1.0 + 1e-9)


def test_mst_is_always_kept():
    for seed in range(5):
        g = weighted_graph(45, 140, seed, lo=1.0, hi=800.0)
        res = light_spanner_general(g, PipelineConfig(mode="general", k=2, eps_user=0.25, trace=True))
        mst = set(build_mst(res.run_graph))
        assert mst <= set(res.edge_ids)
        assert set(res.trace["light_ids"]) <= set(res.edge_ids)


def test_deterministic_for_fixed_seed():
    g = random_connected_graph(60, 200, seed=9)
    cfg = PipelineConfig(mode="general", k=2, eps_user=0.2, seed=4)
    a = light_spanner_general(g, cfg)
    b = light_spanner_general(g, PipelineConfig(mode="general", k=2, eps_user=0.2, seed=4))
    assert a.edge_ids == b.edge_ids
    assert a.edges == b.edges


def test_output_weights_are_input_weights():
    g = weighted_graph(30, 80, seed=2, lo=5.0, hi=50.0)
    res = light_spanner_general(g, PipelineConfig(mode="general", k=2, eps_user=0.25))
    in_weights = {(min(u, v), max(u, v), w) for u, v, w in g.edges}
    for u, v, w in res.edges:
        assert any(w == iw and {u, v} == {iu, iv} for iu, iv, iw in in_weights)


def test_kept_ids_index_the_run_graph_of_a_multigraph():
    # the heavier copy of (0, 1) comes first; dropping it shifts later ids
    g = WeightedGraph(3, [(0, 1, 2.0), (0, 1, 1.0), (1, 2, 1.5)])
    res = light_spanner_general(g, PipelineConfig(mode="general"))
    assert res.run_graph.edges == [(0, 1, 1.0), (1, 2, 1.5)]
    assert res.edge_ids == [0, 1]
    assert res.edges == [res.run_graph.edges[i] for i in res.edge_ids]


def test_geometric_witness_is_a_position_in_the_sorted_pairs():
    # at n <= verify_cap every pair is demanded, so the certified pairs are
    # all pairs in sorted order; the witness is not a base edge id
    p = uniform_points(80, 2, 4)
    res = light_spanner_geometric(p, PipelineConfig(mode="euclidean"))
    pairs = [(u, v, p.distance(u, v)) for u in range(p.n) for v in range(u + 1, p.n)]
    u, v, w = pairs[res.stats["stretch_witness_edge"]]
    dist = oracles.floyd_warshall(p.n, res.edges)
    assert dist[u][v] / w == res.stats["stretch_measured"]


def test_trace_only_when_requested():
    g = weighted_graph(20, 40, seed=1)
    off = light_spanner_general(g, PipelineConfig(mode="general", k=2))
    on = light_spanner_general(g, PipelineConfig(mode="general", k=2, trace=True))
    assert off.trace is None
    assert on.trace is not None and "per_sigma" in on.trace


def test_sampled_certification_above_cap():
    g = weighted_graph(80, 260, seed=6, lo=1.0, hi=600.0)
    cfg = PipelineConfig(mode="general", k=2, eps_user=0.25, verify_cap=50, sample_size=40)
    res = light_spanner_general(g, cfg)
    assert res.stats["stretch_measured"] <= cfg.stretch_target()
    exact = light_spanner_general(g, PipelineConfig(mode="general", k=2, eps_user=0.25))
    # a sampled measurement can only see a subset of the exact demands
    assert res.stats["stretch_measured"] <= exact.stats["stretch_measured"] + 1e-9


def test_minor_free_on_planar_instances():
    for seed in range(3):
        g = planar_triangulation(90, seed=seed)
        cfg = PipelineConfig(mode="minor", eps_user=0.25, seed=seed)
        res = light_spanner_minor_free(g, cfg)
        assert res.stats["stretch_measured"] <= cfg.stretch_target()
        assert res.stats["k"] is None


def test_subdivision_budget_admits_strict_n200():
    # strict general n=200, m=800 is the largest strict build on record
    g, _ = normalize(random_connected_graph(200, 800, 3))
    ids = build_mst(g)
    w_bar = PipelineConfig(strict=True).eps() * sum(g.edges[i][2] for i in ids) / g.n
    sub = subdivide_mst(g, ids, w_bar)
    assert 200_000 < sub.extended_vertex_count <= SUBDIVISION_VERTEX_BUDGET


def test_two_vertex_graph():
    g = WeightedGraph(2, [(0, 1, 3.5)])
    res = light_spanner_general(g, PipelineConfig(mode="general", k=2))
    assert res.edges == [(0, 1, 3.5)]
    assert res.stats["stretch_measured"] == 1.0
    assert res.stats["lightness"] == 1.0


def _split_graph():
    # two components: build_mst raises inside _transform
    return WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])


# entry point -> (a build, a build of a disconnected input)
GC_BUILDS = {
    "general": (
        lambda: light_spanner_general(random_connected_graph(40, 120, 0), PipelineConfig()),
        lambda: light_spanner_general(_split_graph(), PipelineConfig()),
    ),
    "minor": (
        lambda: light_spanner_minor_free(planar_triangulation(40, seed=0), PipelineConfig(mode="minor")),
        lambda: light_spanner_minor_free(_split_graph(), PipelineConfig(mode="minor")),
    ),
    "geometric": (
        lambda: light_spanner_geometric(uniform_points(40, 2, 0), PipelineConfig(mode="euclidean")),
        lambda: light_spanner_geometric(
            PointSet(2, [(0.0, 0.0), (0.01, 0.0), (5.0, 5.0)]), PipelineConfig(mode="udg", radius=0.5)
        ),
    ),
}


@pytest.mark.parametrize("entry", sorted(GC_BUILDS))
@pytest.mark.parametrize("enabled", [True, False])
def test_a_build_pauses_cyclic_gc_and_restores_the_callers_setting(monkeypatch, entry, enabled):
    during = []
    real = pipeline._transform
    monkeypatch.setattr(pipeline, "_transform", lambda *a: during.append(gc.isenabled()) or real(*a))
    build, disconnected = GC_BUILDS[entry]
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        build()
        assert gc.isenabled() == enabled
        with pytest.raises(DisconnectedGraph):
            disconnected()
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()
    assert during and not any(during)  # off inside every build


def test_a_heavy_node_keeps_the_last_level_clustered(monkeypatch):
    g = random_connected_graph(300, 1200, seed=1)
    clustered = []
    real = pipeline.cluster_level
    monkeypatch.setattr(pipeline, "cluster_level", lambda cg, *a, **kw: clustered.append(cg) or real(cg, *a, **kw))

    def levels_clustered(trace):
        clustered.clear()
        res = light_spanner_general(g, PipelineConfig(trace=trace))
        return len(clustered), res

    skipping, _ = levels_clustered(False)
    traced, want = levels_clustered(True)
    assert skipping < traced
    monkeypatch.setattr(pipeline, "heavy_nodes", lambda class_edges, eps: [0])
    untraced, res = levels_clustered(False)
    assert untraced == traced
    assert res.edge_ids == want.edge_ids
    assert all(row["delta"] is not None for row in res.stats["levels"])


def test_build_hi_sends_the_heavy_heavy_remainder_to_the_backend():
    # nodes 0, 1, 2, 4, 5 are heavy and 3 is not; edge 0 lies inside a part
    cfg = PipelineConfig(mode="general", eps_user=0.25)
    w = 3.5  # in the level's window [4 / 1.25, 4)
    pairs = [(0, 1, w), (1, 2, w), (2, 3, w), (4, 5, w), (0, 4, w)]
    cg = make_cg([0.0] * 6, [(v, v + 1, 1.0) for v in range(5)], pairs, scale=4.0)
    outcome = SimpleNamespace(class_eids=[[0]], node_kind=["high"] * 3 + ["low+"] + ["high"] * 2)
    seen = []

    def backend(inp):
        seen.append(inp)
        return SsaOutput(pruned=[0, 2], sparsity=1.0)

    kept = build_hi(cg, outcome, backend, cfg, [0.0])
    (inp,) = seen
    assert inp.edges == [(1, 2, w, 1), (4, 5, w, 3), (0, 4, w, 4)]
    assert inp.level_scale == 4.0 / 1.25
    assert inp.nodes == [0, 1, 2, 4, 5] and inp.reps == {v: v for v in inp.nodes}
    # inside {0}, touching node 3 {2}, pruned by the backend {1, 4}
    assert kept == {0, 1, 2, 4}


def test_rep_positions_refuses_a_virtual_representative():
    p = PointSet(2, [(0.0, 0.0), (1.0, 0.0)])
    assert _rep_positions(p, {7: 1}) == {7: (1.0, 0.0)}
    with pytest.raises(ValueError, match="node 8 has a virtual representative 2"):
        _rep_positions(p, {7: 1, 8: 2})


# ---------------------------------------------------------------------------
# golden outputs: exact spanners of small seeded builds, one per mode


def _digest(res) -> str:
    # the same digest as the benchmark's: sorted kept ids plus stats, timings excluded
    stats = {k: v for k, v in res.stats.items() if k != "timings_ms"}
    blob = json.dumps({"edge_ids": sorted(res.edge_ids), "stats": stats}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# mode -> (build, traced digest, untraced digest).  An untraced build does
# not cluster a class's last level when no node there is heavy, so its level
# rows there carry delta and degenerate None; its edge ids are the traced ones.
GOLDEN = {
    # verify_cap below n routes certification through the sampled path
    "general": (
        lambda trace: light_spanner_general(
            random_connected_graph(300, 1200, seed=1),
            PipelineConfig(
                mode="general", eps_user=0.25, verify_cap=100, sample_size=200, trace=trace
            ),
        ),
        "426ed5a35d8a266d032e9462f43401627502e6a4775d0b357f76f6a3cb882668",
        "d4de73f97a9d447545043acf90e5754ca4f906a88733af3ced9005496232b473",
    ),
    "minor": (
        lambda trace: light_spanner_minor_free(
            planar_triangulation(300, seed=2),
            PipelineConfig(mode="minor", eps_user=0.25, trace=trace),
        ),
        "7031b1d2ecde3a2f2d19633fac052f50e8f842aa6752dc4fef8210d7b5f1709f",
        "81d84d371204730a22164e02d6b8a9f805fdd460e910c0bd918392d96ea7703e",
    ),
    "euclidean": (
        lambda trace: light_spanner_geometric(
            uniform_points(150, 2, seed=3),
            PipelineConfig(mode="euclidean", eps_user=0.25, trace=trace),
        ),
        "59734403d14f28f9889a70dd32ac716e1161011e00b7664375041ec404fb768c",
        "8aea6f79d66d1f7fcb63264958caf057dcc9dfaa3f444d00029ebec3715aa91e",
    ),
    "udg": (
        lambda trace: light_spanner_geometric(
            uniform_points(300, 2, seed=4),
            PipelineConfig(mode="udg", radius=0.15, eps_user=0.25, trace=trace),
        ),
        "faf7577d828836727264094c6fa8e187132e436fb8f8242eef2474c4d368803b",
        "93dbf41a1dd2fa7b4895dd29c736d275c6dda7038b5077d3fb26f402ec734ade",
    ),
    # geometric certification above verify_cap: seeded pair samples
    "euclidean-sampled": (
        lambda trace: light_spanner_geometric(
            uniform_points(600, 2, 7),
            PipelineConfig(
                mode="euclidean", eps_user=0.25, verify_cap=100, sample_size=200, trace=trace
            ),
        ),
        "e1c04648be33c34ef57c3b63e7f5d81b9ee14fb094501d10e4d2b43dab29b645",
        "6771001e86b27dae696d0a41a7895bd677905a97f71824646b186ec735cf4464",
    ),
    "udg-sampled": (
        lambda trace: light_spanner_geometric(
            uniform_points(600, 2, 7),
            PipelineConfig(
                mode="udg",
                radius=0.1,
                eps_user=0.25,
                verify_cap=100,
                sample_size=200,
                trace=trace,
            ),
        ),
        "7833200d20d7c14f706b55edc6f644f55da3ecca3044659fe64f3cb94b3de4b0",
        "7ba8ee00ca59a2b9b3740de77dcc2841285edb858edf4c52be2ea8bbb927b0a6",
    ),
    # unit-disk grids in other dimensions
    "udg-1d": (
        lambda trace: light_spanner_geometric(
            uniform_points(200, 1, 7),
            PipelineConfig(mode="udg", radius=0.05, eps_user=0.25, trace=trace),
        ),
        "a56a60b770d40a0609291bff8dc729025864a6b921a3552725870f55249e524d",
        "a56a60b770d40a0609291bff8dc729025864a6b921a3552725870f55249e524d",
    ),
    "udg-3d": (
        lambda trace: light_spanner_geometric(
            uniform_points(150, 3, 7),
            PipelineConfig(mode="udg", radius=0.35, eps_user=0.25, trace=trace),
        ),
        "47734564aa74b4d565b8ee4d77c2dd98fd94852f8c6ff2d9666ab7e1d54849e6",
        "2aeb0e3dd7cad685d8254b3b1f0c0d9ffc2a61af576a49f27b56925607f595a8",
    ),
    # the d >= 3 cone rule: udg-3d keeps every in-range pair under any rule,
    # so only a complete-metric Yao base pins it
    "euclidean-3d": (
        lambda trace: light_spanner_geometric(
            uniform_points(100, 3, 2),
            PipelineConfig(mode="euclidean", eps_user=0.25, trace=trace),
        ),
        "b7fbc9aeec169542fb3dde43eb890b9cd04a0ad7b214296c081232e7a34c61df",
        "44a39a14cf351bc97375f78300e73702646fdfafb891543b5025138954f5b315",
    ),
}


@pytest.mark.parametrize(
    "mode, trace",
    [
        pytest.param(mode, trace, id=mode + ("-traced" if trace else ""))
        for trace in (False, True)
        for mode in sorted(GOLDEN)
    ],
)
def test_golden_output(mode, trace):
    build, traced, untraced = GOLDEN[mode]
    res = build(trace)
    assert (res.trace is not None) == trace
    assert _digest(res) == (traced if trace else untraced)


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_untraced_build_keeps_the_traced_edges(mode):
    # the oracle for skipping clustering: a traced build clusters every level
    plain, traced = GOLDEN[mode][0](False), GOLDEN[mode][0](True)
    assert plain.edge_ids == traced.edge_ids
    assert plain.stats.keys() == traced.stats.keys()
    for key in plain.stats.keys() - {"timings_ms", "levels"}:
        assert plain.stats[key] == traced.stats[key], key
    assert len(plain.stats["levels"]) == len(traced.stats["levels"])
    skipped = 0
    for row, full in zip(plain.stats["levels"], traced.stats["levels"]):
        if row["delta"] is None:
            skipped += 1
            assert row["degenerate"] is None
            row = dict(row, delta=full["delta"], degenerate=full["degenerate"])
        assert row == full
    assert skipped or not plain.stats["levels"]


def _python(*argv: str) -> str:
    """stdout of a fresh interpreter that imports lightspan and these tests."""
    paths = [str(Path(lightspan.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_golden_output_without_asserts():
    # python -O strips assert statements; no build may depend on them
    script = (
        "import json\n"
        "from test_pipeline import GOLDEN, _digest\n"
        "print(json.dumps([__debug__, {m: _digest(b(False)) for m, (b, _, _) in GOLDEN.items()}]))\n"
    )
    debug, got = json.loads(_python("-O", "-c", script))
    assert debug is False
    assert got == {mode: want for mode, (_, _, want) in GOLDEN.items()}


def test_invariant_checks_run_without_asserts():
    script = (
        "from test_clustering import make_cg\n"
        "from lightspan.clustering import _State\n"
        "from lightspan.hierarchy import InvariantViolation\n"
        "state = _State(make_cg([0.0, 0.0], [(0, 1, 1.0)], []), 0.1, False)\n"
        "xid = state.new_part('Step1')\n"
        "state.assign(0, xid)\n"
        "try:\n"
        "    state.assign(0, xid)\n"
        "except InvariantViolation as exc:\n"
        "    print(__debug__, exc)\n"
    )
    assert _python("-O", "-c", script).strip() == "False node 0 grouped twice"


# ---------------------------------------------------------------------------
# geometric modes


def test_unit_square_corners():
    p = PointSet(2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    cfg = PipelineConfig(mode="euclidean", eps_user=0.1)
    res = light_spanner_geometric(p, cfg)
    assert res.stats["stretch_measured"] <= cfg.stretch_target()
    assert res.stats["base_edges"] >= 3


def test_euclidean_stats_and_stretch():
    p = uniform_points(120, 2, seed=3)
    cfg = PipelineConfig(mode="euclidean", eps_user=0.2, seed=3)
    res = light_spanner_geometric(p, cfg)
    assert res.stats["stretch_measured"] <= cfg.stretch_target()
    assert res.stats["mode"] == "euclidean"
    assert res.stats["k"] is None
    assert STATS_KEYS <= set(res.stats)


def test_euclidean_deterministic():
    p = uniform_points(80, 2, seed=5)
    cfg = PipelineConfig(mode="euclidean", eps_user=0.2, seed=1)
    a = light_spanner_geometric(p, cfg)
    b = light_spanner_geometric(p, PipelineConfig(mode="euclidean", eps_user=0.2, seed=1))
    assert a.edges == b.edges


def test_euclidean_3d_runs():
    p = uniform_points(60, 3, seed=2)
    cfg = PipelineConfig(mode="euclidean", eps_user=0.25, seed=2)
    res = light_spanner_geometric(p, cfg)
    assert res.stats["stretch_measured"] <= cfg.stretch_target()


def test_udg_respects_radius():
    p = uniform_points(200, 2, seed=7)
    cfg = PipelineConfig(mode="udg", radius=0.25, eps_user=0.2, seed=7)
    res = light_spanner_geometric(p, cfg)
    for u, v, w in res.edges:
        assert w <= 0.25 + 1e-12
        assert math.isclose(w, p.distance(u, v), rel_tol=1e-12)
    assert res.stats["stretch_measured"] <= cfg.stretch_target()


def test_udg_disconnected_raises():
    p = PointSet(2, [(0.0, 0.0), (0.01, 0.0), (5.0, 5.0)])
    cfg = PipelineConfig(mode="udg", radius=0.5, eps_user=0.2)
    with pytest.raises(DisconnectedGraph):
        light_spanner_geometric(p, cfg)


@pytest.mark.parametrize("mode", ["euclidean", "udg"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_yao_base_matches_brute_force(d, mode):
    # r = 0.5 is exact in binary: coordinates on multiples of r sit on grid
    # cell boundaries, and some pairs lie at exactly distance r
    r = 0.5
    rng = random.Random(d)
    coords = lambda: rng.choice([rng.uniform(-1.0, 1.0), r * rng.randint(-2, 2)])  # noqa: E731
    p = PointSet(d, sorted({tuple(coords() for _ in range(d)) for _ in range(40)}))
    cfg = PipelineConfig(mode=mode, radius=r)
    _, cone_of = cone_selector(d, _cone_angle(cfg.eps_base()))
    want = oracles.yao_graph(p.points, cone_of, r if mode == "udg" else None)
    assert _yao_base(p, cfg).edges == want


def _gauss_at_offset(n, seed):
    rng = random.Random(seed)
    return sorted({(1e6 + rng.gauss(0.0, 1e-3), 1e6 + rng.gauss(0.0, 1e-3)) for _ in range(n)})


# 2-D inputs for the early-stopping Yao scan: ties, flat bounding boxes,
# points far from the origin, and sizes at or below the cone count
YAO_STOP_CASES = {
    "uniform-300": (lambda: uniform_points(300, 2, 11).points, 0.25),
    "lattice-15x15": (lambda: [(float(i), float(j)) for i in range(15) for j in range(15)], 0.25),
    "horizontal-150": (lambda: [(0.37 * i, 2.0) for i in range(150)], 0.25),
    "vertical-150": (lambda: [(-1.0, 0.37 * i) for i in range(150)], 0.25),
    "diagonal-150": (lambda: [(0.5 * i, 0.5 * i) for i in range(150)], 0.25),
    "circle-404": (lambda: [(math.cos(a), math.sin(a)) for a in (k * math.pi / 202 for k in range(404))], 0.25),
    "gauss-offset-1e6": (lambda: _gauss_at_offset(200, 4), 0.25),
    "n1": (lambda: [(0.0, 0.0)], 0.25),
    "n2": (lambda: [(0.0, 0.0), (1.0, 2.0)], 0.25),
    "n3": (lambda: [(0.0, 0.0), (1.0, 2.0), (3.0, -1.0)], 0.25),
    "cones-above-n": (lambda: uniform_points(120, 2, 12).points, 0.001),
    # grid-scan cases
    "lattice-on-cell-edges": (lambda: _lattice_on_cell_edges(11, 14), 0.25),
    "points-at-box-max": (lambda: _points_at_box_max(150, 15), 0.25),
    "clusters-apart-horizontal": (lambda: _clusters_apart((1000.0, 0.0), 150, 16), 0.25),
    "clusters-apart-diagonal": (lambda: _clusters_apart((1000.0, 1000.0), 150, 17), 0.25),
    "uniform-600": (lambda: uniform_points(600, 2, 18).points, 0.25),
    "blobs-of-mixed-scale": (lambda: _blobs(84), 0.25),
    # a box too wide for a float span: one grid cell, every pair scanned
    "span-overflows": (lambda: [(s * 1.5e308 * (1 - k / 64), k / 7) for k in range(30) for s in (-1, 1)], 0.25),
}


def _blobs(seed):
    # gaussian blobs of spread 0.5, 3 or 10: once a ring is scanned, the
    # nearest gathered point can lie beyond the reach limit while a point of
    # the next ring is nearer and within it
    rng = random.Random(seed)
    pts = set()
    for _ in range(rng.randint(2, 6)):
        cx, cy, s = rng.uniform(0, 100), rng.uniform(0, 100), rng.choice([0.5, 3, 10])
        for _ in range(rng.randint(10, 60)):
            pts.add((cx + rng.gauss(0, s), cy + rng.gauss(0, s)))
    return sorted(pts)


def _lattice_on_cell_edges(k, seed):
    # a k x k unit lattice plus seeded filler inside its box, CELL_POINTS
    # (k-1)^2 points in all, so the grid's cell side is exactly 1 and every
    # lattice point sits on a cell boundary
    rng = random.Random(seed)
    pts = {(float(i), float(j)) for i in range(k) for j in range(k)}
    while len(pts) < pipeline.CELL_POINTS * (k - 1) ** 2:
        pts.add((rng.uniform(0.0, k - 1.0), rng.uniform(0.0, k - 1.0)))
    return sorted(pts)


def _points_at_box_max(n, seed):
    # uniform points plus points on the box's top and right edges and corners
    rng = random.Random(seed)
    pts = {(rng.random(), rng.random()) for _ in range(n)}
    pts |= {(1.0, rng.random()) for _ in range(20)} | {(rng.random(), 1.0) for _ in range(20)}
    pts |= {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
    return sorted(pts)


def _clusters_apart(offset, n, seed):
    # two tight clusters far apart: the rings between them are empty
    rng = random.Random(seed)
    pts = {(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)}
    pts |= {(offset[0] + rng.gauss(0.0, 1.0), offset[1] + rng.gauss(0.0, 1.0)) for _ in range(n)}
    return sorted(pts)


@pytest.mark.parametrize("name", sorted(YAO_STOP_CASES))
def test_yao_base_stops_early_and_matches_brute_force(monkeypatch, name):
    make, eps_user = YAO_STOP_CASES[name]
    p = PointSet(2, make())
    cfg = PipelineConfig(mode="euclidean", eps_user=eps_user)
    tau, cone_of = cone_selector(2, _cone_angle(cfg.eps_base()))
    calls = []

    def counting_selector(d, theta):
        count, inner = cone_selector(d, theta)
        return count, lambda vec: calls.append(vec) or inner(vec)

    monkeypatch.setattr(pipeline, "cone_selector", counting_selector)
    assert _yao_base(p, cfg).edges == oracles.yao_graph(p.points, cone_of)
    # with fewer cones than candidates the scan stops early; otherwise it
    # looks at every ordered pair
    assert (len(calls) < p.n * (p.n - 1)) == (tau < p.n - 1)


@pytest.mark.parametrize("d, side", [(2, 1.5), (4, 1.0)])
def test_udg_candidates_follow_offset_order(d, side):
    # d = 2 occupies at least 3^d cells, d = 4 fewer. Either way the
    # candidates come in itertools.product offset order, which the sampled
    # certification depends on.
    r = 0.5
    rng = random.Random(d)
    p = PointSet(d, [tuple(rng.uniform(0.0, side) for _ in range(d)) for _ in range(60)])
    cell = [tuple(math.floor(c / r) for c in pt) for pt in p.points]
    assert (len(set(cell)) >= 3**d) == (d == 2)
    near = _neighbours(p, PipelineConfig(mode="udg", radius=r))
    for u in range(p.n):
        want = [
            (v, p.distance(u, v))
            for off in itertools.product((-1, 0, 1), repeat=d)
            for v in range(p.n)
            if v != u
            and cell[v] == tuple(k + s for k, s in zip(cell[u], off))
            and p.distance(u, v) <= r
        ]
        assert list(near(u)) == want


def test_builds_load_neither_numpy_nor_scipy():
    # numpy and scipy would add tens of MB to the peak memory of every
    # build; every mode stays in pure Python, sampled certification (n above
    # verify_cap) included.  The minor-free input is a grid because the
    # planar generator's Delaunay does need scipy.
    script = (
        "import sys\n"
        "from lightspan.generate import grid_graph, random_connected_graph, uniform_points\n"
        "from lightspan.pipeline import (PipelineConfig, light_spanner_general,\n"
        "    light_spanner_geometric, light_spanner_minor_free)\n"
        "for cap in (500, 50):\n"
        "    for d, r in ((2, 0.3), (3, 0.4)):\n"
        "        for mode in ('euclidean', 'udg'):\n"
        "            cfg = PipelineConfig(mode=mode, radius=r, verify_cap=cap, sample_size=100)\n"
        "            light_spanner_geometric(uniform_points(80, d, 1), cfg)\n"
        "    cfg = PipelineConfig(mode='general', verify_cap=cap, sample_size=100)\n"
        "    light_spanner_general(random_connected_graph(80, 240, 1), cfg)\n"
        "    cfg = PipelineConfig(mode='minor', verify_cap=cap, sample_size=100)\n"
        "    light_spanner_minor_free(grid_graph(8, 10, 1, jitter=0.5), cfg)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    assert _python("-c", script).strip() == "[]"
