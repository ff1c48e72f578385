"""End-to-end acceptance battery.

Each test covers one release criterion and prints a single pass/fail line
with the measured numbers, so a bare `pytest -v tests/test_acceptance.py`
doubles as the sign-off checklist.
"""

import math
import random
import statistics
import time

import oracles
from conftest import weighted_graph
from lightspan.clustering import STRICT_EPS, cluster_level
from lightspan.generate import random_connected_graph, uniform_points
from lightspan.graphs import WeightedGraph, build_mst, indexed_adjacency
from lightspan.hierarchy import POTENTIAL_RATIO, ClusterGraph
from lightspan.pipeline import (
    PipelineConfig,
    light_spanner_general,
    light_spanner_geometric,
    light_spanner_minor_free,
)
from lightspan.ssa import unweighted_spanner
from lightspan.verify import check_hierarchy, greedy_spanner, measure_stretch

G = POTENTIAL_RATIO


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"acceptance {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. per-edge stretch on general graphs, exact searches, under a minute


def test_acceptance_1_general_stretch():
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    for seed in range(50):
        n = 40 + (seed * 13) % 61  # 40..100
        m = min(3 * n, n * (n - 1) // 2)
        g = random_connected_graph(n, m, seed=seed, w_lo=1.0, w_hi=1000.0)
        k = 2 if seed % 2 == 0 else 3
        cfg = PipelineConfig(mode="general", k=k, eps_user=0.25, eps_internal=0.05, seed=seed)
        res = light_spanner_general(g, cfg)
        target = (2 * k - 1) * (1.0 + 310.0 * 0.05)
        ratio = res.stats["stretch_measured"] / target
        worst = max(worst, ratio)
        if res.stats["stretch_measured"] > target * (1.0 + 1e-9):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    _report(
        1,
        "general stretch certification",
        ok,
        f"50 graphs, k in 2/3, eps 0.05: {violations} violations, "
        f"worst ratio to bound {worst:.4f}, {elapsed:.1f}s of 60s",
    )


# ---------------------------------------------------------------------------
# 2. all-pairs stretch on uniform points against the theory constants


def test_acceptance_2_geometric_stretch():
    t0 = time.perf_counter()
    bound = None
    violations = 0
    worst = 0.0
    for seed in range(20):
        p = uniform_points(200, 2, seed=seed)
        cfg = PipelineConfig(
            mode="euclidean", eps_user=0.25, eps_internal=0.01, psi=0.25, seed=seed
        )
        res = light_spanner_geometric(p, cfg)
        bound = (1.0 + cfg.eps_base()) * (1.0 + 2.0 * (19.0 * 62.0 + 14.0) * 0.01)
        worst = max(worst, res.stats["stretch_measured"])
        if res.stats["stretch_measured"] > bound * (1.0 + 1e-9):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _report(
        2,
        "geometric stretch certification",
        ok,
        f"20 x 200 points, eps 0.01: {violations} violations, "
        f"worst all-pairs stretch {worst:.4f} vs bound {bound:.2f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. potential ledger invariants on traced runs of every mode


def test_acceptance_3_ledger_suite():
    runs = []
    for seed in range(4):
        g = random_connected_graph(70, 220, seed=seed)
        runs.append(
            light_spanner_general(
                g, PipelineConfig(mode="general", k=2, eps_user=0.25, trace=True, seed=seed)
            )
        )
    from lightspan.generate import grid_graph, planar_triangulation

    runs.append(
        light_spanner_minor_free(
            planar_triangulation(120, seed=1), PipelineConfig(mode="minor", eps_user=0.2, trace=True)
        )
    )
    runs.append(
        light_spanner_minor_free(
            grid_graph(10, 10, seed=0), PipelineConfig(mode="minor", eps_user=0.25, trace=True)
        )
    )
    runs.append(
        light_spanner_geometric(
            uniform_points(120, 2, seed=2),
            PipelineConfig(mode="euclidean", eps_user=0.2, trace=True),
        )
    )
    runs.append(
        light_spanner_geometric(
            uniform_points(250, 2, seed=3),
            PipelineConfig(mode="udg", radius=0.2, eps_user=0.2, trace=True),
        )
    )
    checked = 0
    failures = []
    for res in runs:
        rep = check_hierarchy(res.trace)
        checked += len(rep.checks)
        failures.extend(rep.failures())
    ok = not failures
    _report(
        3,
        "potential ledger suite",
        ok,
        f"{len(runs)} traced runs, {checked} ledger checks "
        f"(phi1 vs tree weight, delta identity, corrected drops, prefix diameter), "
        f"{len(failures)} failures",
    )


# ---------------------------------------------------------------------------
# 4. clustering invariants in strict mode at the analyzed scale


def _make_cg(node_weights, tree_pairs, class_pairs, scale=1.0):
    return ClusterGraph(
        node_weights=list(node_weights),
        tree_edges=[(u, v, w, i) for i, (u, v, w) in enumerate(tree_pairs)],
        tree_adj=indexed_adjacency(len(node_weights), tree_pairs),
        class_edges=[(u, v, w, i) for i, (u, v, w) in enumerate(class_pairs)],
        level_scale=scale,
        prev_scale=STRICT_EPS * scale,
        w_bar=scale * 1e-6,
        members=[[v] for v in range(len(node_weights))],
    )


def _strict_instances():
    eps = STRICT_EPS
    hub = int(2 * G / eps) + 25
    tree = [(i, i + 1, 1e-6) for i in range(hub)]
    classes = [(0, j, 0.999) for j in range(1, hub + 1)]
    yield "hub star", _make_cg([2.0 * eps] * (hub + 1), tree, classes)

    nid, tree = 1, []
    for _ in range(3):
        prev = 0
        for _ in range(800):
            tree.append((prev, nid, 1e-6))
            prev = nid
            nid += 1
    yield "spider", _make_cg([eps] * nid, tree, [])

    yield "short path", _make_cg(
        [eps] * 40, [(i, i + 1, 1e-6) for i in range(39)], [(3, 30, 0.9)]
    )

    yield "long bare path", _make_cg([eps] * 2600, [(i, i + 1, 1e-6) for i in range(2599)], [])

    yield "deep pair", _make_cg(
        [eps] * 2600, [(i, i + 1, 1e-6) for i in range(2599)], [(900, 1700, 0.95)]
    )


def test_acceptance_4_strict_clustering():
    eps = STRICT_EPS
    problems = []
    parts_seen = 0
    for name, cg in _strict_instances():
        out = cluster_level(cg, eps, strict=True)
        parts_seen += len(out.groups)
        seen = sorted(v for grp in out.groups for v in grp)
        if seen != list(range(cg.n_nodes)):
            problems.append(f"{name}: node partition broken")
        for adm, collapse, tag, grp in zip(out.adm, out.collapse, out.tags, out.groups):
            if collapse:
                continue
            if not (cg.level_scale * (1 - 1e-9) <= adm <= G * cg.level_scale * (1 + 1e-9)):
                problems.append(f"{name}: isolation window violated ({adm})")
            if tag == "Step1" and len(grp) < 2 * G / eps:
                problems.append(f"{name}: step-1 part too small ({len(grp)})")
        for a, b, _, _ in cg.class_edges:
            ka, kb = out.node_kind[a], out.node_kind[b]
            if {ka, kb} == {"high", "low-"}:
                problems.append(f"{name}: heavy node touches barred node")
        kept = sum(len(ce) for ce in out.class_eids)
        if out.degenerate and kept > 4 * G / eps**2:
            problems.append(f"{name}: degenerate level keeps too many class edges")
    ok = not problems
    _report(
        4,
        "strict-mode clustering invariants",
        ok,
        f"eps 1/256, 5 synthetic levels, {parts_seen} parts: "
        + ("all invariants hold" if ok else "; ".join(problems[:3])),
    )


# ---------------------------------------------------------------------------
# 5. lightness grows slowly with n at fixed density


def test_acceptance_5_lightness_trend():
    means = {}
    for n in (64, 128, 256):
        vals = []
        for seed in range(10):
            g = random_connected_graph(n, 8 * n, seed=seed)
            res = light_spanner_general(g, PipelineConfig(mode="general", k=2, eps_user=0.25))
            vals.append(res.stats["lightness"])
        means[n] = statistics.mean(vals)
    ratio = means[256] / means[64]
    ok = ratio <= 2.5
    _report(
        5,
        "lightness trend",
        ok,
        f"k=2, m=8n, 10 seeds: mean lightness {means[64]:.2f} (n=64) -> "
        f"{means[128]:.2f} (n=128) -> {means[256]:.2f} (n=256), ratio {ratio:.3f} <= 2.5",
    )


# ---------------------------------------------------------------------------
# 6. near-linear wall time per input edge


def test_acceptance_6_runtime_trend():
    sizes = (10_000, 20_000, 40_000)
    times = {m: [] for m in sizes}
    for seed in range(5):
        for m in sizes:
            g = random_connected_graph(m // 4, m, seed=seed)
            t0 = time.perf_counter()
            light_spanner_general(g, PipelineConfig(mode="general", k=2, eps_user=0.25, seed=seed))
            times[m].append(time.perf_counter() - t0)
    med = {m: statistics.median(ts) for m, ts in times.items()}
    r1 = med[20_000] / med[10_000]
    r2 = med[40_000] / med[20_000]
    ok = r1 <= 3.0 and r2 <= 3.0
    _report(
        6,
        "runtime trend",
        ok,
        f"median over 5 seeds: {med[10_000]:.2f}s / {med[20_000]:.2f}s / {med[40_000]:.2f}s, "
        f"doubling ratios {r1:.2f}, {r2:.2f} <= 3.0",
    )


# ---------------------------------------------------------------------------
# 7. the fast implementations agree with brute-force oracles


def test_acceptance_7_oracle_equivalence():
    problems = []

    # unweighted spanner: every labeled connected graph up to 5 vertices,
    # then seeded random graphs up to 9
    cases = 0
    for n in range(2, 6):
        for pairs in oracles.all_connected_graphs(n):
            for k in (2, 3):
                kept = unweighted_spanner(n, pairs, k)
                sub = [pairs[i] for i in kept]
                cases += 1
                for u, v in pairs:
                    if oracles.bfs_hops(n, sub, u)[v] > 2 * k - 1:
                        problems.append(f"hop stretch broken on n={n} k={k}")
                if len(kept) > n ** (1.0 + 1.0 / k) + n:
                    problems.append(f"edge bound broken on n={n} k={k}")
    rng = random.Random(0)
    for trial in range(40):
        n = rng.randrange(6, 10)
        m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
        pairs = set()
        while len(pairs) < m:
            u, v = rng.sample(range(n), 2)
            pairs.add((min(u, v), max(u, v)))
        pairs = sorted(pairs)
        for k in (2, 3):
            kept = unweighted_spanner(n, pairs, k)
            sub = [pairs[i] for i in kept]
            cases += 1
            for u, v in pairs:
                if oracles.bfs_hops(n, sub, u)[v] > 2 * k - 1:
                    problems.append(f"hop stretch broken on random n={n} k={k}")
            if len(kept) > n ** (1.0 + 1.0 / k) + n:
                problems.append(f"edge bound broken on random n={n} k={k}")

    # greedy spanner meets its stretch bound on 100 seeded instances
    for seed in range(100):
        g = weighted_graph(10 + seed % 20, 25 + seed % 30, seed)
        t = (1.5, 2.0, 3.0)[seed % 3]
        stretch, _ = measure_stretch(g, greedy_spanner(g, t))
        cases += 1
        if stretch > t * (1.0 + 1e-9):
            problems.append(f"greedy stretch {stretch} > {t} at seed {seed}")

    # MST agrees with exhaustive spanning tree enumeration up to 8 vertices
    for seed in range(10):
        n = 5 + seed % 4
        g = weighted_graph(n, min(2 * n, n * (n - 1) // 2), seed)
        got = sum(g.edges[i][2] for i in build_mst(g))
        want = oracles.min_spanning_weight(g.n, g.edges)
        cases += 1
        if not math.isclose(got, want, rel_tol=1e-12):
            problems.append(f"mst weight {got} != {want} at seed {seed}")

    ok = not problems
    _report(
        7,
        "oracle equivalence",
        ok,
        f"{cases} cases (exhaustive n<=5, random n<=9, 100 greedy, 10 mst): "
        + ("all agree" if ok else "; ".join(problems[:3])),
    )


# ---------------------------------------------------------------------------
# 8. geometric lightness within a constant of the greedy baseline


def test_acceptance_8_geometric_lightness():
    eps = 0.25
    ratios = []
    for seed in range(3):
        p = uniform_points(200, 2, seed=seed)
        metric = WeightedGraph(
            p.n, [(u, v, p.distance(u, v)) for u in range(p.n) for v in range(u + 1, p.n)]
        )
        mst_w = sum(metric.edges[i][2] for i in build_mst(metric))
        kept = greedy_spanner(metric, 1.0 + eps)
        greedy_light = sum(metric.edges[i][2] for i in kept) / mst_w
        res = light_spanner_geometric(
            p, PipelineConfig(mode="euclidean", eps_user=eps, seed=seed)
        )
        ratios.append(res.stats["lightness"] / greedy_light)
    worst = max(ratios)
    ok = worst <= 10.0
    _report(
        8,
        "geometric lightness vs greedy",
        ok,
        f"200 points, eps {eps}, 3 seeds: lightness ratios "
        f"{', '.join(f'{r:.2f}' for r in ratios)}, worst {worst:.2f} <= 10",
    )
