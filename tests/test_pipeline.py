import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lightspan
import oracles
from conftest import weighted_graph
from lightspan.generate import planar_triangulation, random_connected_graph, uniform_points
from lightspan.graphs import DisconnectedGraph, PointSet, WeightedGraph, build_mst
from lightspan.pipeline import (
    RHO_GENERAL,
    RHO_GEOM,
    RHO_MINOR,
    S_GENERAL,
    S_GEOM,
    S_MINOR,
    PipelineConfig,
    _cone_angle,
    _neighbours,
    _yao_base,
    light_spanner_general,
    light_spanner_geometric,
    light_spanner_minor_free,
    stretch_rho,
)
from lightspan.ssa import cone_selector

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
    assert stretch_rho(S_GENERAL) == RHO_GENERAL == 310.0
    assert stretch_rho(S_GEOM) == RHO_GEOM == 2508.0
    assert stretch_rho(S_MINOR) == RHO_MINOR == 310.0


def test_internal_eps_defaults_to_user_eps():
    cfg = PipelineConfig(mode="general", eps_user=0.25)
    assert cfg.eps() == 0.25


def test_strict_mode_scales_eps_down():
    cfg = PipelineConfig(mode="general", eps_user=0.25, strict=True)
    assert cfg.eps() == min(0.25 / RHO_GENERAL, 1.0 / 256.0)
    geo = PipelineConfig(mode="euclidean", eps_user=0.5, strict=True)
    assert geo.eps() == min(0.5 / RHO_GEOM, 1.0 / 256.0)


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
        assert any(
            math.isclose(w, iw, rel_tol=1e-12) and {u, v} == {iu, iv}
            for iu, iv, iw in in_weights
        )


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


def test_two_vertex_graph():
    g = WeightedGraph(2, [(0, 1, 3.5)])
    res = light_spanner_general(g, PipelineConfig(mode="general", k=2))
    assert res.edges == [(0, 1, 3.5)]
    assert res.stats["stretch_measured"] == 1.0
    assert res.stats["lightness"] == 1.0


# ---------------------------------------------------------------------------
# golden outputs: exact spanners of small seeded builds, one per mode


def _digest(res) -> str:
    # the same digest as the benchmark's: sorted kept ids plus stats, timings excluded
    stats = {k: v for k, v in res.stats.items() if k != "timings_ms"}
    blob = json.dumps({"edge_ids": sorted(res.edge_ids), "stats": stats}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


GOLDEN = {
    # verify_cap below n routes certification through the sampled path
    "general": (
        lambda: light_spanner_general(
            random_connected_graph(300, 1200, seed=1),
            PipelineConfig(mode="general", eps_user=0.25, verify_cap=100, sample_size=200),
        ),
        "426ed5a35d8a266d032e9462f43401627502e6a4775d0b357f76f6a3cb882668",
    ),
    "minor": (
        lambda: light_spanner_minor_free(
            planar_triangulation(300, seed=2), PipelineConfig(mode="minor", eps_user=0.25)
        ),
        "7031b1d2ecde3a2f2d19633fac052f50e8f842aa6752dc4fef8210d7b5f1709f",
    ),
    "euclidean": (
        lambda: light_spanner_geometric(
            uniform_points(150, 2, seed=3), PipelineConfig(mode="euclidean", eps_user=0.25)
        ),
        "59734403d14f28f9889a70dd32ac716e1161011e00b7664375041ec404fb768c",
    ),
    "udg": (
        lambda: light_spanner_geometric(
            uniform_points(300, 2, seed=4),
            PipelineConfig(mode="udg", radius=0.15, eps_user=0.25),
        ),
        "faf7577d828836727264094c6fa8e187132e436fb8f8242eef2474c4d368803b",
    ),
    # geometric certification above verify_cap: seeded pair samples
    "euclidean-sampled": (
        lambda: light_spanner_geometric(
            uniform_points(600, 2, 7),
            PipelineConfig(mode="euclidean", eps_user=0.25, verify_cap=100, sample_size=200),
        ),
        "e1c04648be33c34ef57c3b63e7f5d81b9ee14fb094501d10e4d2b43dab29b645",
    ),
    "udg-sampled": (
        lambda: light_spanner_geometric(
            uniform_points(600, 2, 7),
            PipelineConfig(
                mode="udg", radius=0.1, eps_user=0.25, verify_cap=100, sample_size=200
            ),
        ),
        "7833200d20d7c14f706b55edc6f644f55da3ecca3044659fe64f3cb94b3de4b0",
    ),
    # unit-disk grids in other dimensions
    "udg-1d": (
        lambda: light_spanner_geometric(
            uniform_points(200, 1, 7), PipelineConfig(mode="udg", radius=0.05, eps_user=0.25)
        ),
        "a56a60b770d40a0609291bff8dc729025864a6b921a3552725870f55249e524d",
    ),
    "udg-3d": (
        lambda: light_spanner_geometric(
            uniform_points(150, 3, 7), PipelineConfig(mode="udg", radius=0.35, eps_user=0.25)
        ),
        "47734564aa74b4d565b8ee4d77c2dd98fd94852f8c6ff2d9666ab7e1d54849e6",
    ),
    # the d >= 3 cone rule: udg-3d keeps every in-range pair under any rule,
    # so only a complete-metric Yao base pins it
    "euclidean-3d": (
        lambda: light_spanner_geometric(
            uniform_points(100, 3, 2), PipelineConfig(mode="euclidean", eps_user=0.25)
        ),
        "b7fbc9aeec169542fb3dde43eb890b9cd04a0ad7b214296c081232e7a34c61df",
    ),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_golden_output(mode):
    build, want = GOLDEN[mode]
    assert _digest(build()) == want


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
        "print(json.dumps([__debug__, {m: _digest(b()) for m, (b, _) in GOLDEN.items()}]))\n"
    )
    debug, got = json.loads(_python("-O", "-c", script))
    assert debug is False
    assert got == {mode: want for mode, (_, want) in GOLDEN.items()}


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
