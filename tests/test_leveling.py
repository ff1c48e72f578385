import bisect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import weighted_graph
from lightspan import leveling
from lightspan.graphs import WeightedGraph, build_mst
from lightspan.hierarchy import InvariantViolation
from lightspan.leveling import classify_edges
from lightspan.pipeline import PipelineConfig, light_spanner_general


def _cells(sch):
    """(sigma, i) of every heavy edge, read off per_sigma."""
    return {
        eid: (sigma, i)
        for sigma, cells in sch.per_sigma.items()
        for i, ids in cells.items()
        for eid in ids
    }


def test_mu_matches_formula():
    sch = classify_edges(WeightedGraph(2, [(0, 1, 1.0)]), [], w_bar=10.0, eps=0.1, psi=0.5)
    assert sch.mu == math.ceil(math.log(1.0 / 0.1) / math.log(1.5))


def test_light_cut():
    # w_bar/eps = 4: weights at or below it are light, heavier ones are not
    g = WeightedGraph(4, [(0, 1, 3.9), (1, 2, 4.0), (2, 3, 4.1)])
    sch = classify_edges(g, [], w_bar=1.0, eps=0.25, psi=0.25)
    assert sch.light_edges == [0, 1]
    assert set(_cells(sch)) == {2}


def test_a_decreasing_threshold_table_is_an_invariant_violation(monkeypatch):
    # the first cell's end is moved above every later one; the check is not
    # an assert, so it also runs under python -O
    real = leveling.LevelSchedule.level_threshold
    monkeypatch.setattr(
        leveling.LevelSchedule,
        "level_threshold",
        lambda self, sigma, i: 1e9 if (sigma, i) == (1, 1) else real(self, sigma, i),
    )
    g = WeightedGraph(2, [(0, 1, 10.0)])
    with pytest.raises(InvariantViolation, match="thresholds decrease"):
        classify_edges(g, [], w_bar=1.0, eps=0.25, psi=0.25)


def test_classify_refuses_an_unbounded_weight_ratio():
    # the level count comes from log(heaviest / w_bar)
    with pytest.raises(ValueError, match="not a finite ratio"):
        classify_edges(WeightedGraph(2, [(0, 1, 1e308)]), [], w_bar=1e-10, eps=0.25, psi=0.25)
    with pytest.raises(ValueError, match="not a finite ratio"):
        classify_edges(WeightedGraph(2, [(0, 1, math.inf)]), [], w_bar=1.0, eps=0.25, psi=0.25)


def _window_contains(sch, sigma, i, w):
    return sch.level_threshold(sigma - 1, i) <= w < sch.level_threshold(sigma, i)


@given(
    st.floats(min_value=1.01, max_value=1e9),
    st.sampled_from([0.05, 0.1, 0.25, 1.0 / 256.0]),
    st.sampled_from([0.25, 0.5, 1.0]),
)
@settings(max_examples=300, deadline=None)
def test_every_heavy_weight_lands_in_a_valid_cell(w, eps, psi):
    w_bar = 1.0
    weight = w * w_bar / eps  # strictly above the light cut
    g = WeightedGraph(2, [(0, 1, weight)])
    sch = classify_edges(g, [], w_bar=w_bar, eps=eps, psi=psi)
    assert sch.light_edges == []
    (sigma, i) = _cells(sch)[0]
    assert 1 <= sigma <= sch.mu
    assert i >= 1
    assert _window_contains(sch, sigma, i, weight)


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_classification_is_a_partition(seed):
    g = weighted_graph(12, 30, seed, lo=0.1, hi=5000.0)
    mst_ids = build_mst(g)
    sch = classify_edges(g, mst_ids, w_bar=1.0, eps=0.2, psi=0.3)
    listed = [e for cells in sch.per_sigma.values() for ids in cells.values() for e in ids]
    assert len(listed) == len(set(listed))  # no heavy edge sits in two cells
    placed = set(sch.light_edges) | set(listed)
    assert placed == set(range(g.m)) - set(mst_ids)
    assert not set(sch.light_edges) & set(listed)


def test_lower_class_wins_when_windows_overlap():
    # pick a weight inside the sigma=1 window; classes are scanned upward so
    # it must not land in a higher class even if one also covers it
    w_bar, eps, psi = 1.0, 0.1, 0.5
    g0 = WeightedGraph(2, [(0, 1, 14.0)])
    sch = classify_edges(g0, [], w_bar=w_bar, eps=eps, psi=psi)
    sigma, i = _cells(sch)[0]
    assert _window_contains(sch, sigma, i, 14.0)
    for lower in range(1, sigma):
        for j in range(1, 80):
            assert not _window_contains(sch, lower, j, 14.0)


def test_classify_rejects_bad_parameters():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        classify_edges(g, [], w_bar=1.0, eps=1.5, psi=0.5)
    with pytest.raises(ValueError):
        classify_edges(g, [], w_bar=1.0, eps=0.5, psi=0.0)


def test_reduce_over_sigma_unions_tree_light_and_classes():
    # the per-class reduction is one loop in the pipeline: its output is
    # exactly the MST, the light edges and one spanner per busy class
    g = weighted_graph(30, 90, seed=1, lo=0.5, hi=800.0)
    cfg = PipelineConfig(mode="general", k=2, eps_user=0.25, trace=True)
    res = light_spanner_general(g, cfg)
    tr = res.trace
    sch = classify_edges(res.run_graph, tr["mst_ids"], tr["w_bar"], cfg.eps(), cfg.psi_value())
    assert sorted(tr["light_ids"]) == sorted(sch.light_edges)
    assert list(tr["per_sigma"]) == sorted(sch.per_sigma)
    assert sorted(tr["per_class_edges"]) == sorted(sch.per_sigma)
    want = set(tr["mst_ids"]) | set(tr["light_ids"])
    for ids in tr["per_class_edges"].values():
        want |= set(ids)
    assert set(res.edge_ids) == want


def _listed_values(w_bar, eps, psi, ratio):
    """Every value the old per-edge loop compares against (thr = base/eps^i,
    thr/(1+psi) and thr*eps with base = w_bar (1+psi)^sigma as a running
    product), and every cell end T(sigma, i) of the table, up to twice the
    ratio."""
    mu = max(1, math.ceil(math.log(1.0 / eps) / math.log(1.0 + psi)))
    listed = []
    pow_psi = 1.0
    for sigma in range(1, mu + 1):
        pow_psi *= 1.0 + psi
        base = w_bar * pow_psi
        i = 1
        while (thr := base / eps**i) * eps <= 2.0 * ratio * w_bar:
            listed += (thr, thr / (1.0 + psi), thr * eps)
            listed += (w_bar * (1.0 + psi) ** s / eps**i for s in (sigma - 1, sigma))
            i += 1
    return listed


@pytest.mark.parametrize("psi_kind", ["eps", 0.5, 1.0])
@pytest.mark.parametrize("eps", [0.25, 0.1, 0.3, 1.0 / 256.0, 1.0 / 1240.0, 0.6, 0.7, 0.9])
def test_gap_lookup_matches_the_per_edge_loop(eps, psi_kind):
    # Adversarial weights: every listed value, its nextafter neighbours and
    # points a relative 2e-9 away, plus log-uniform weights.  Where mu runs
    # into the hundreds the per-edge loops are slow, so a seeded subset of
    # the listed values is used.  At eps 0.6, 0.7 and 0.9 some psi give
    # mu = 1, where the one class's windows overlap across levels.
    psi = eps if psi_kind == "eps" else psi_kind
    w_bar = 1.0
    ratio = 1e9
    listed = _listed_values(w_bar, eps, psi, ratio)
    rng = random.Random(int(1 / eps) * 10 + len(listed))
    budget = 300 if len(listed) < 3000 else 40
    picked = rng.sample(listed, budget) if len(listed) > budget else listed
    weights = []
    for x in picked:
        weights += (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf), x * (1 - 2e-9), x * (1 + 2e-9))
    weights += (math.exp(rng.uniform(0.0, math.log(ratio))) * w_bar for _ in range(budget))
    weights += (w_bar / eps, math.nextafter(w_bar / eps, math.inf), ratio * w_bar)
    rng.shuffle(weights)
    sch = classify_edges(WeightedGraph(2, [(0, 1, w) for w in weights]), [], w_bar=w_bar, eps=eps, psi=psi)
    cells = _cells(sch)
    for ids in (ids for by_i in sch.per_sigma.values() for ids in by_i.values()):
        assert ids == sorted(ids)
    # bit for bit the tiled rule, which gives every heavy weight a cell
    light, tiled = oracles.classify_cells_tiled(weights, w_bar, eps, psi)
    assert sch.light_edges == light
    assert cells == tiled
    # the old loop, whose thresholds round differently, agrees away from
    # the listed values; a weight it let escape through a rounding hole
    # gets a cell that holds it
    _, old = oracles.classify_cells(weights, w_bar, eps, psi)
    listed.sort()
    for eid, cell in old.items():
        w = weights[eid]
        if cell is None:
            assert _window_contains(sch, *cells[eid], w)
            continue
        k = bisect.bisect_left(listed, w)
        near = [x for x in listed[max(0, k - 1) : k + 1] if abs(w - x) <= 1e-12 * x]
        assert near or cells[eid] == cell, (w, cells[eid], cell)
