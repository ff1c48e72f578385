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


def test_edge_that_escapes_every_class_is_an_invariant_violation(monkeypatch):
    # not an assert, so the check also runs under python -O
    monkeypatch.setattr(leveling, "_locate_level", lambda w, base, eps, psi: (1, False))
    g = WeightedGraph(2, [(0, 1, 10.0)])
    with pytest.raises(InvariantViolation, match="escaped every class"):
        classify_edges(g, [], w_bar=1.0, eps=0.25, psi=0.25)


def _window_contains(sch, sigma, i, w):
    hi = sch.level_threshold(sigma, i)
    return hi / (1.0 + sch.psi) <= w < hi


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


@pytest.mark.parametrize("psi_kind", ["eps", 0.5, 1.0])
@pytest.mark.parametrize("eps", [0.25, 0.1, 0.3, 1.0 / 256.0, 1.0 / 1240.0])
def test_gap_lookup_matches_the_per_edge_loop(eps, psi_kind):
    # Adversarial weights: every value the sigma loop compares against
    # (thr = base/eps^i, thr/(1+psi), thr*eps), its nextafter neighbours and
    # points just outside the 1e-9 guard, plus log-uniform weights so that
    # gaps are shared.  Where psi = eps is tiny, mu runs into the thousands
    # and the loop is slow, so a seeded subset of the listed values is used.
    psi = eps if psi_kind == "eps" else psi_kind
    w_bar = 1.0
    ratio = 1e9
    mu = max(1, math.ceil(math.log(1.0 / eps) / math.log(1.0 + psi)))
    listed = []
    pow_psi = 1.0
    for _ in range(mu):
        pow_psi *= 1.0 + psi
        base = w_bar * pow_psi
        i = 1
        while (thr := base / eps**i) * eps <= 2.0 * ratio * w_bar:
            listed += (thr, thr / (1.0 + psi), thr * eps)
            i += 1
    rng = random.Random(int(1 / eps) * 10 + mu)
    budget = 300 if mu < 100 else 40
    if len(listed) > budget:
        listed = rng.sample(listed, budget)
    weights = []
    for x in listed:
        weights += (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf), x * (1 - 2e-9), x * (1 + 2e-9))
    weights += (math.exp(rng.uniform(0.0, math.log(ratio))) * w_bar for _ in range(budget))
    weights += (w_bar / eps, math.nextafter(w_bar / eps, math.inf), ratio * w_bar)
    rng.shuffle(weights)
    light, cells = oracles.classify_cells(weights, w_bar, eps, psi)
    # rounding can leave a hole of an ulp or two between adjacent class
    # windows; a weight in one escapes every class, for both implementations
    escaped = {eid for eid, cell in cells.items() if cell is None}
    for eid in escaped:
        with pytest.raises(InvariantViolation, match="escaped every class"):
            classify_edges(WeightedGraph(2, [(0, 1, weights[eid])]), [], w_bar=w_bar, eps=eps, psi=psi)
    kept = [eid for eid in range(len(weights)) if eid not in escaped]
    g = WeightedGraph(2, [(0, 1, weights[eid]) for eid in kept])
    sch = classify_edges(g, [], w_bar=w_bar, eps=eps, psi=psi)
    assert [kept[j] for j in sch.light_edges] == light
    assert {kept[j]: cell for j, cell in _cells(sch).items()} == {
        eid: cell for eid, cell in cells.items() if eid not in escaped
    }
    for ids in (ids for by_i in sch.per_sigma.values() for ids in by_i.values()):
        assert ids == sorted(ids)

