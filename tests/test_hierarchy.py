import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import weighted_graph
from lightspan.graphs import build_mst, subdivide_mst
from lightspan.hierarchy import (
    NodeWeightedSubgraph,
    PotentialLedger,
    UnsupportedShape,
    augmented_diameter,
    ClusterLevel,
    build_cluster_graph,
    build_level1,
    contract_level,
)
from lightspan.unionfind import UnionFind


def _random_tree(n, rng):
    """Node/edge-weighted tree on ids 0..n-1."""
    nw = {v: rng.uniform(0.0, 3.0) for v in range(n)}
    edges = [(rng.randrange(v), v, rng.uniform(0.1, 2.0)) for v in range(1, n)]
    return nw, edges


# ---------------------------------------------------------------------------
# augmented diameter


def test_augmented_diameter_single_node_and_empty():
    assert augmented_diameter(NodeWeightedSubgraph({}, [])) == 0.0
    assert augmented_diameter(NodeWeightedSubgraph({3: 2.5}, [])) == 2.5


def test_augmented_diameter_path():
    nw = {0: 1.0, 1: 2.0, 2: 4.0}
    edges = [(0, 1, 10.0), (1, 2, 20.0)]
    assert augmented_diameter(NodeWeightedSubgraph(nw, edges)) == 37.0


def test_augmented_diameter_node_weights_break_two_sweep():
    # heavy off-path node: plain double-sweep diameter would miss it
    nw = {0: 0.0, 1: 0.0, 2: 0.0, 3: 100.0}
    edges = [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 0.5)]
    assert augmented_diameter(NodeWeightedSubgraph(nw, edges)) == 101.5


@given(st.integers(2, 10), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_augmented_diameter_tree_matches_path_enumeration(n, seed):
    rng = random.Random(seed)
    nw, edges = _random_tree(n, rng)
    got = augmented_diameter(NodeWeightedSubgraph(nw, edges))
    want = oracles.augmented_diameter_paths(nw, edges)
    assert math.isclose(got, want, rel_tol=1e-12)


@given(st.integers(3, 9), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_augmented_diameter_single_cycle_matches_path_enumeration(n, seed):
    rng = random.Random(seed)
    nw, edges = _random_tree(n, rng)
    u, v = rng.sample(range(n), 2)
    if any({u, v} == {a, b} for a, b, _ in edges):
        return
    edges.append((u, v, rng.uniform(0.1, 2.0)))
    got = augmented_diameter(NodeWeightedSubgraph(nw, edges))
    want = oracles.augmented_diameter_paths(nw, edges)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_augmented_diameter_rejects_two_cycles():
    nw = {v: 1.0 for v in range(4)}
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
    with pytest.raises(UnsupportedShape):
        augmented_diameter(NodeWeightedSubgraph(nw, edges))


def test_augmented_diameter_rejects_disconnected():
    nw = {0: 1.0, 1: 1.0, 2: 1.0}
    with pytest.raises(ValueError):
        augmented_diameter(NodeWeightedSubgraph(nw, [(0, 1, 1.0)]))


# ---------------------------------------------------------------------------
# first level


def _subdivided(seed, n=12, m=24, w_bar=0.8):
    g = weighted_graph(n, m, seed)
    ids = build_mst(g)
    return g, ids, subdivide_mst(g, ids, w_bar)


def test_level1_partitions_every_extended_vertex():
    for seed in range(8):
        _, _, sub = _subdivided(seed)
        lvl = build_level1(sub, level0_scale=1.6)
        seen = sorted(v for ms in lvl.members for v in ms)
        assert seen == list(range(sub.extended_vertex_count))


def test_level1_potentials_are_exact_diameters():
    _, _, sub = _subdivided(3)
    lvl = build_level1(sub, level0_scale=1.6)
    for ms, phi in zip(lvl.members, lvl.potentials):
        in_set = set(ms)
        nw = {v: 0.0 for v in ms}
        edges = [(a, b, w) for a, b, w in sub.tree_edges if a in in_set and b in in_set]
        want = oracles.augmented_diameter_paths(nw, edges) if len(ms) <= 14 else None
        if want is not None:
            assert math.isclose(phi, want, rel_tol=1e-12)


def test_level1_total_potential_below_tree_weight():
    for seed in range(8):
        g, ids, sub = _subdivided(seed)
        lvl = build_level1(sub, level0_scale=2.0)
        mst_w = sum(g.edges[i][2] for i in ids)
        assert sum(lvl.potentials) <= mst_w * (1.0 + 1e-9)


def test_level1_cluster_scale_window():
    for seed in range(8):
        _, _, sub = _subdivided(seed, w_bar=0.5)
        scale = 1.5
        lvl = build_level1(sub, scale)
        if lvl.cluster_count > 1:
            for phi in lvl.potentials:
                assert phi >= scale - 1e-12
                assert phi <= 4.0 * (scale + sub.w_bar)


def test_level1_representatives_prefer_original_vertices():
    _, _, sub = _subdivided(5)
    lvl = build_level1(sub, 1.6)
    for ms, rep in zip(lvl.members, lvl.representatives):
        originals = [v for v in ms if v < sub.n_original]
        if originals:
            assert rep == min(originals)
        else:
            assert rep == min(ms) and rep >= sub.n_original


def test_level1_rejects_scale_below_piece_size():
    _, _, sub = _subdivided(1, w_bar=0.8)
    with pytest.raises(ValueError):
        build_level1(sub, level0_scale=0.5)


# ---------------------------------------------------------------------------
# cluster graph lift


def test_cluster_graph_drops_shadowed_edges():
    g, ids, sub = _subdivided(2, n=10, m=20, w_bar=0.6)
    uf = UnionFind(g.n, sub.extended_vertex_count)
    lvl = build_level1(sub, 1.2, uf)
    eps = 0.01
    t = 3.0
    slack = t * (1.0 + 6.0 * 31 * eps)
    # class edges parallel to the contracted tree: one clearly removable
    # (weight far above any tree path), one clearly not (tiny weight)
    extra = list(g.edges)
    cu, cv = g.edges[ids[0]][0], g.edges[ids[0]][1]
    heavy_id = len(extra)
    extra.append((cu, cv, 10_000.0))
    g2 = type(g)(g.n, extra)
    cg = build_cluster_graph(lvl, [heavy_id], g2, uf, t, eps, level_scale=5.0, w_bar=sub.w_bar)
    if uf.find(cu) != uf.find(cv):
        # adjacent clusters joined by one tree piece: shadow weight is well
        # under slack * 10000, so the class edge must be gone
        assert cg.class_edges == []


def test_cluster_graph_keeps_min_parallel_edge():
    g, ids, sub = _subdivided(4, n=8, m=12, w_bar=0.7)
    uf = UnionFind(g.n, sub.extended_vertex_count)
    lvl = build_level1(sub, 1.4, uf)
    # find two vertices in different clusters
    pairs = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if uf.find(u) != uf.find(v)
    ]
    u, v = pairs[0]
    # weights far below any tree path so the shadow test cannot delete them
    extra = list(g.edges) + [(u, v, 0.005), (u, v, 0.004), (v, u, 0.006)]
    g2 = type(g)(g.n, extra)
    ids3 = [g.m, g.m + 1, g.m + 2]
    cg = build_cluster_graph(lvl, ids3, g2, uf, 3.0, 0.3, level_scale=0.005, w_bar=sub.w_bar)
    kept = [(w, src) for _, _, w, src in cg.class_edges]
    assert kept == [(0.004, g.m + 1)]


# ---------------------------------------------------------------------------
# contraction


def test_contract_level_closes_cycles_into_a_spanning_tree():
    # level tree: path 0-1-2-3-4 over five single-vertex clusters.  Groups
    # A={0,3}, B={1,4}, C={2} (A and B glued by class edges, not by the
    # tree) turn it into a triangle A-B-C with two parallel A-B candidates.
    lvl = ClusterLevel(
        prev_scale=1.0,
        members=[[v] for v in range(5)],
        potentials=[1.0] * 5,
        representatives=list(range(5)),
        tree_edges=[
            (0, 1, 2.0, 50),  # A-B, loses the tie on source id
            (1, 2, 1.0, 60),  # B-C
            (2, 3, 3.0, 70),  # C-A, closes the cycle
            (3, 4, 2.0, 9),  # A-B, kept candidate
        ],
    )
    uf = UnionFind(5, 5)
    outcome = SimpleNamespace(
        groups=[[0, 3], [1, 4], [2]], level_scale=4.0, adm=[5.0, 6.0, 7.0], collapse=[False] * 3
    )
    nxt = contract_level(lvl, outcome, uf)
    # one candidate per node pair, min (weight, source id), then Kruskal
    assert nxt.tree_edges == [(1, 2, 1.0, 60), (0, 1, 2.0, 9)]
    assert len(nxt.tree_edges) == nxt.cluster_count - 1
    assert nxt.members == [[0, 3], [1, 4], [2]]
    assert nxt.representatives == [0, 1, 2]
    assert nxt.potentials == [5.0, 6.0, 7.0]
    assert uf.find(0) == uf.find(3) and uf.find(1) == uf.find(4)
    assert len({uf.find(r) for r in nxt.representatives}) == 3


def test_ledger_records_levels_and_transitions():
    led = PotentialLedger()

    class Lvl:
        potentials = [3.0, 2.0]

    led.record_level(Lvl())

    class Lvl2:
        potentials = [4.0]

    led.record_level(Lvl2())
    led.record_transition([1.5, -0.5], [1.75, -0.25])
    assert led.phi_totals == [5.0, 4.0]
    assert led.deltas == [1.0]
    assert led.local_changes == [[1.5, -0.5]]
    assert led.corrected_changes[0] == [1.75, -0.25]
