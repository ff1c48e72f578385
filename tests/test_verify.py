import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import point_graph, weighted_graph
from lightspan.generate import random_connected_graph
from lightspan.graphs import WeightedGraph, build_mst
from lightspan.pipeline import PipelineConfig, light_spanner_general
from lightspan.verify import (
    NotSpanning,
    VerificationReport,
    check_hierarchy,
    greedy_spanner,
    measure_stretch,
)


# ---------------------------------------------------------------------------
# stretch measurement


def test_identity_subgraph_has_stretch_one():
    g = weighted_graph(8, 14, seed=0)
    stretch, witness = measure_stretch(g, list(range(g.m)))
    assert stretch == 1.0
    assert witness >= -1


def test_triangle_missing_edge():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    stretch, witness = measure_stretch(g, [0, 1])
    assert stretch == 2.0
    assert witness == 2


def test_witness_is_lowest_edge_id_among_maxima():
    # two detours with identical ratio; the earlier edge id must win
    g = WeightedGraph(
        6,
        [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 1.0),  # ratio 2 via edge ids 0,1
            (3, 4, 1.0),
            (4, 5, 1.0),
            (3, 5, 1.0),  # ratio 2 again
            (2, 3, 1.0),
        ],
    )
    kept = [0, 1, 3, 4, 6]
    stretch, witness = measure_stretch(g, kept)
    assert stretch == 2.0
    assert witness == 2


def test_not_spanning_raises():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(NotSpanning):
        measure_stretch(g, [0])
    # a cut-off demanded endpoint still raises when the searches stop early
    g = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (2, 3, 5.0)])
    kept = [0, 1, 2, 3]  # edge 4 joins the two halves and is left out
    assert measure_stretch(g, kept, edge_ids=[0, 1, 3]) == (1.0, 0)
    with pytest.raises(NotSpanning):
        measure_stretch(g, kept, edge_ids=[0, 1, 4])


def test_demand_restriction():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    stretch, witness = measure_stretch(g, [0, 1], edge_ids=[0, 1])
    assert stretch == 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_measure_stretch_matches_floyd_warshall(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 40)
    m = rng.randrange(n, min(3 * n, n * (n - 1) // 2))
    g = weighted_graph(n, m, seed)
    kept = sorted(rng.sample(range(g.m), rng.randrange(n - 1, g.m + 1)))
    if not oracles.is_connected(n, [(g.edges[i][0], g.edges[i][1]) for i in kept]):
        kept = list(range(g.m))
    got, _ = measure_stretch(g, kept)
    want = oracles.max_stretch(g.n, g.edges, kept)
    assert math.isclose(got, want, rel_tol=1e-9)


def test_measure_stretch_floyd_warshall_n100():
    g = weighted_graph(100, 300, seed=42)
    kept = build_mst(g)
    got, _ = measure_stretch(g, kept)
    want = oracles.max_stretch(g.n, g.edges, kept)
    assert math.isclose(got, want, rel_tol=1e-9)


def test_measure_stretch_equals_full_search_oracle():
    # the early-exit searches must give the very floats a full search gives
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randrange(5, 60)
        g = weighted_graph(n, rng.randrange(n, min(3 * n, n * (n - 1) // 2)), seed)
        if seed % 2:
            g = WeightedGraph(n, [(u, v, rng.choice((0.1, 0.2, 0.3))) for u, v, _ in g.edges])
        kept = sorted(set(build_mst(g)) | set(rng.sample(range(g.m), rng.randrange(0, g.m))))
        demands = None if seed % 4 == 0 else sorted(rng.sample(range(g.m), rng.randrange(1, g.m + 1)))
        got = measure_stretch(g, kept, edge_ids=demands)
        assert got == oracles.full_search_stretch(g.n, g.edges, kept, demands)


def test_measure_stretch_with_lower_bound_equals_full_search_oracle():
    # per-demand A* searches over sampled point pairs must give the very
    # floats one full search per lower endpoint gives
    for seed in range(16):
        rng = random.Random(seed)
        n = rng.randrange(5, 60)
        if seed % 4 == 3:
            # collinear points: equal-length detours everywhere
            pts = [(0.1 * i, 0.0) for i in range(n)]
        else:
            pts = [(rng.random(), rng.random()) for _ in range(n)]
        g = point_graph(pts, rng.randrange(n, min(3 * n, n * (n - 1) // 2)), seed)
        kept = sorted(set(build_mst(g)) | set(rng.sample(range(g.m), rng.randrange(0, g.m))))
        demands = sorted(rng.sample(range(g.m), rng.randrange(1, min(g.m, 2 * n) + 1)))
        got = measure_stretch(
            g,
            kept,
            edge_ids=demands,
            lower_bound=lambda v, t: math.dist(pts[v], pts[t]) * (1 - 1e-9),
        )
        assert got == oracles.full_search_stretch(g.n, g.edges, kept, demands)
        assert got == measure_stretch(g, kept, edge_ids=demands)


# ---------------------------------------------------------------------------
# greedy baseline


def test_greedy_on_tree_is_identity():
    g = weighted_graph(10, 9, seed=3)
    assert greedy_spanner(g, 2.0) == list(range(9))


def test_greedy_unit_square_t3_closes_cycle():
    # last edge's detour is exactly 3 = t: not kept, strict inequality
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    assert greedy_spanner(g, 3.0) == [0, 1, 2]


def test_greedy_girth_exceeds_t_plus_one():
    for seed in range(5):
        g = weighted_graph(20, 50, seed, lo=1.0, hi=1.0)
        for t in (2.0, 3.0, 4.0):
            kept = greedy_spanner(g, t)
            pairs = [(g.edges[i][0], g.edges[i][1]) for i in kept]
            assert oracles.girth(g.n, pairs) > t + 1


def test_greedy_output_meets_its_own_stretch_bound():
    for seed in range(6):
        g = weighted_graph(16, 40, seed)
        for t in (1.5, 2.0, 3.0):
            kept = greedy_spanner(g, t)
            stretch, _ = measure_stretch(g, kept)
            assert stretch <= t * (1.0 + 1e-9)


def test_greedy_keeps_a_bridge_whose_stretch_limit_overflows():
    # 3 * 1e308 is inf, and a missing path (inf) is not above it
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1e308)])
    assert greedy_spanner(g, 3.0) == [0, 1]


def test_greedy_rejects_bad_t():
    with pytest.raises(ValueError):
        greedy_spanner(WeightedGraph(2, [(0, 1, 1.0)]), 0.5)


# ---------------------------------------------------------------------------
# trace replay


def _traced_run(seed=0, n=60, m=150):
    g = weighted_graph(n, m, seed, lo=1.0, hi=900.0)
    cfg = PipelineConfig(mode="general", k=2, eps_user=0.25, trace=True, seed=seed)
    return light_spanner_general(g, cfg)


def test_check_hierarchy_accepts_real_trace():
    res = _traced_run()
    rep = check_hierarchy(res.trace)
    assert rep.passed, rep.failures()
    names = {c["name"].split("[")[0] for c in rep.checks}
    assert {"phi1_le_mst", "delta_identity", "corrected_drop_nonneg", "prefix_diameter"} <= names


def test_check_hierarchy_survives_json_round_trip():
    res = _traced_run(seed=1)
    trace = json.loads(json.dumps(res.trace))
    assert check_hierarchy(trace).passed


def _first_row_with(trace, field):
    """The first level row, over every class, whose `field` list is nonempty."""
    for cls in trace["per_sigma"].values():
        for row in cls["levels"]:
            if row[field]:
                return row
    raise AssertionError(f"no level row has a nonempty {field}")


def test_check_hierarchy_flags_phi_above_mst():
    res = _traced_run(seed=2)
    trace = json.loads(json.dumps(res.trace))
    sigma = next(iter(trace["per_sigma"]))
    trace["per_sigma"][sigma]["levels"][0]["potentials"][0] += trace["mst_weight"] * 2.0
    rep = check_hierarchy(trace)
    assert not rep.passed
    assert any(c["name"].startswith("phi1_le_mst") and not c["passed"] for c in rep.checks)


def test_check_hierarchy_flags_broken_delta_identity():
    res = _traced_run(seed=3)
    trace = json.loads(json.dumps(res.trace))
    _first_row_with(trace, "local_change")["local_change"][0] += 1.0
    rep = check_hierarchy(trace)
    assert any(c["name"].startswith("delta_identity") and not c["passed"] for c in rep.checks)


def test_check_hierarchy_flags_negative_corrected_drop():
    res = _traced_run(seed=4)
    trace = json.loads(json.dumps(res.trace))
    _first_row_with(trace, "corrected_change")["corrected_change"][0] = -1.0
    rep = check_hierarchy(trace)
    assert any(c["name"].startswith("corrected_drop_nonneg") and not c["passed"] for c in rep.checks)


def _traced_600():
    g = random_connected_graph(600, 2400, 5)
    return light_spanner_general(g, PipelineConfig(mode="general", trace=True)).trace


def test_check_hierarchy_derives_totals_from_the_level_potentials():
    # a level-1 potential raised by that level's scale still bounds its
    # cluster's diameter, so only the potential ledger can notice it
    trace = _traced_600()
    assert trace["n_extended"] > 500
    assert check_hierarchy(trace).passed
    row = trace["per_sigma"][1]["levels"][0]
    assert row["i"] == 1
    row["potentials"][0] += row["scale"]
    failed = [c["name"] for c in check_hierarchy(trace).failures()]
    assert failed == ["delta_identity[sigma=1,level=1]"]


def test_check_hierarchy_checks_every_potential_of_a_large_build():
    # move one level-1 cluster's whole potential onto another: every level
    # total stays, so only the cluster's induced diameter can show it
    trace = _traced_600()
    assert trace["n_extended"] > 500
    row = trace["per_sigma"][1]["levels"][0]
    assert row["i"] == 1
    j = next(j for j, ms in enumerate(row["members"]) if len(ms) > 1)
    k = (j + 1) % len(row["members"])
    row["potentials"][k] += row["potentials"][j]
    row["potentials"][j] = 0.0
    failed = [c["name"] for c in check_hierarchy(trace).failures()]
    assert failed == ["prefix_diameter[sigma=1,level=1]"]


def test_check_hierarchy_flags_understated_potential():
    res = _traced_run(seed=5)
    trace = json.loads(json.dumps(res.trace))
    tampered = False
    for sigma in trace["per_sigma"]:
        for row in trace["per_sigma"][sigma]["levels"]:
            for j, ms in enumerate(row["members"]):
                if len(ms) > 3:
                    row["potentials"][j] *= 1e-6
                    tampered = True
                    break
            if tampered:
                break
        if tampered:
            break
    assert tampered
    rep = check_hierarchy(trace)
    assert any(c["name"].startswith("prefix_diameter") and not c["passed"] for c in rep.checks)


def test_report_round_trip():
    rep = VerificationReport()
    rep.add("alpha", True, {"x": 1})
    rep.add("beta", False, {"y": 2})
    assert not rep.passed
    assert [c["name"] for c in rep.failures()] == ["beta"]
    again = json.loads(rep.to_json())
    assert again["passed"] is False
    assert len(again["checks"]) == 2


# ---------------------------------------------------------------------------
# searches steered from the target


def test_steered_searches_equal_full_search_oracle(monkeypatch):
    # sampled demands mostly have one endpoint per source, which takes the
    # backward-then-A* search; it must give the very floats a full search gives
    import lightspan.verify as verify

    seen = []  # (distance, limit) of each steered search

    def spy(adj, source, target, cutoff, limit):
        d = real(adj, source, target, cutoff, limit)
        seen.append((d, limit))
        return d

    real = verify._steered_distance
    monkeypatch.setattr(verify, "_steered_distance", spy)
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randrange(20, 120)
        g = weighted_graph(n, rng.randrange(2 * n, min(4 * n, n * (n - 1) // 2)), seed)
        if seed % 3 == 0:  # ties everywhere
            g = WeightedGraph(n, [(u, v, rng.choice((0.1, 0.2, 0.3))) for u, v, _ in g.edges])
        elif seed % 3 == 1:  # a weight ratio of 1e6; detours over heavy edges pass the limit
            heavy = [1.0, 1e6] + [rng.uniform(6e5, 1e6) for _ in g.edges[2:]]
            g = WeightedGraph(n, [(u, v, w) for (u, v, _), w in zip(g.edges, heavy)])
        kept = sorted(set(build_mst(g)) | set(rng.sample(range(g.m), rng.randrange(0, g.m // 2))))
        demands = sorted(rng.sample(range(g.m), rng.randrange(1, n // 3)))
        got = measure_stretch(g, kept, edge_ids=demands)
        assert got == oracles.full_search_stretch(g.n, g.edges, kept, demands)
    assert any(d <= limit for d, limit in seen)  # the steered distance was kept
    assert any(d > limit for d, limit in seen)  # and searched again above the limit


def test_steered_search_without_a_path_is_not_spanning():
    g = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0), (2, 3, 4.0), (0, 4, 9.0)])
    assert oracles.full_search_stretch(g.n, g.edges, [0, 1, 2], [3])[0] == math.inf
    with pytest.raises(NotSpanning):
        measure_stretch(g, [0, 1, 2], edge_ids=[3])
