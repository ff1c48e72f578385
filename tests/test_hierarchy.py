import copy
import hashlib
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightspan.hierarchy as hierarchy
import oracles
from conftest import weighted_graph
from lightspan.clustering import _State
from lightspan.generate import random_connected_graph
from lightspan.graphs import WeightedGraph, build_mst, indexed_adjacency, subdivide_mst
from lightspan.hierarchy import (
    UnsupportedShape,
    augmented_diameter,
    ClusterLevel,
    build_cluster_graph,
    build_level1,
    contract_level,
    _ChainIndex,
)
from lightspan.pipeline import PipelineConfig, light_spanner_general


def _random_tree(n, rng):
    """Node/edge-weighted tree on ids 0..n-1."""
    nw = {v: rng.uniform(0.0, 3.0) for v in range(n)}
    edges = [(rng.randrange(v), v, rng.uniform(0.1, 2.0)) for v in range(1, n)]
    return nw, edges


# ---------------------------------------------------------------------------
# augmented diameter


def test_augmented_diameter_single_node_and_empty():
    assert augmented_diameter({}, []) == 0.0
    assert augmented_diameter({3: 2.5}, []) == 2.5


def test_augmented_diameter_path():
    nw = {0: 1.0, 1: 2.0, 2: 4.0}
    edges = [(0, 1, 10.0), (1, 2, 20.0)]
    assert augmented_diameter(nw, edges) == 37.0


def test_augmented_diameter_node_weights_break_two_sweep():
    # heavy off-path node: plain double-sweep diameter would miss it
    nw = {0: 0.0, 1: 0.0, 2: 0.0, 3: 100.0}
    edges = [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 0.5)]
    assert augmented_diameter(nw, edges) == 101.5


@given(st.integers(2, 10), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_augmented_diameter_tree_matches_path_enumeration(n, seed):
    rng = random.Random(seed)
    nw, edges = _random_tree(n, rng)
    got = augmented_diameter(nw, edges)
    want = oracles.augmented_diameter_paths(nw, edges)
    assert math.isclose(got, want, rel_tol=1e-12)


@given(st.integers(3, 9), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_augmented_diameter_single_cycle_matches_path_enumeration(n, seed):
    rng = random.Random(seed)
    nw, edges = _random_tree(n, rng)
    u, v = rng.sample(range(n), 2)
    edges.append((u, v, rng.uniform(0.1, 2.0)))
    got = augmented_diameter(nw, edges)
    want = oracles.augmented_diameter_paths(nw, edges)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_augmented_diameter_rejects_two_cycles():
    nw = {v: 1.0 for v in range(4)}
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
    with pytest.raises(UnsupportedShape):
        augmented_diameter(nw, edges)


def test_augmented_diameter_rejects_disconnected():
    nw = {0: 1.0, 1: 1.0, 2: 1.0}
    with pytest.raises(ValueError):
        augmented_diameter(nw, [(0, 1, 1.0)])


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


def test_level1_leaves_the_shared_tree_untouched():
    g, ids, sub = _subdivided(5)
    before = copy.deepcopy((sub.adj, sub.parent, sub.order))
    for scale in (1.6, 3.0):
        got = build_level1(sub, level0_scale=scale)
        want = build_level1(subdivide_mst(g, ids, sub.w_bar), level0_scale=scale)
        assert got == want
    assert (sub.adj, sub.parent, sub.order) == before


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
    # build_hi takes each cluster's least member as its representative
    _, _, sub = _subdivided(5)
    lvl = build_level1(sub, 1.6)
    for ms in lvl.members:
        rep = min(ms)
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
# chain index behind the shadow test

CHAIN_SHAPES = ["tiny", "path", "star", "caterpillar", "adjacent hubs", "hub-2-hub", "random"]
CHAIN_WEIGHTS = ["uniform", "zero nodes", "tied"]


def _caterpillar(leaves):
    """(n, pairs) of a spine path whose node s carries leaves[s] leaves."""
    pairs = [(s - 1, s) for s in range(1, len(leaves))]
    n = len(leaves)
    for s, k in enumerate(leaves):
        pairs += [(s, n + j) for j in range(k)]
        n += k
    return n, pairs


def _shaped_tree(shape, weights, seed):
    """Seeded tree of one shape as a level carries it: (n, node weights,
    (a, b, w, id) edges), with ids relabelled and edges shuffled and flipped
    so that chain ends and adjacency order vary."""
    rng = random.Random(seed)
    if shape == "tiny":
        n = rng.choice([1, 2, 3])
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
    elif shape == "path":
        n, pairs = _caterpillar([0] * rng.randint(2, 30))
    elif shape == "star":
        n, pairs = _caterpillar([rng.randint(3, 19)])
    elif shape == "caterpillar":
        n, pairs = _caterpillar([rng.randint(0, 3) for _ in range(rng.randint(2, 10))])
    elif shape == "adjacent hubs":  # two degree->=3 nodes sharing an edge
        n, pairs = _caterpillar([rng.randint(2, 4), rng.randint(2, 4)])
    elif shape == "hub-2-hub":  # one degree-2 node between two degree->=3 nodes
        n, pairs = _caterpillar([rng.randint(2, 4), 0, rng.randint(2, 4)])
    else:
        n = rng.randint(2, 40)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
    label = list(range(n))
    rng.shuffle(label)
    rng.shuffle(pairs)

    def pick():
        return rng.choice([0.1, 0.2, 0.3]) if weights == "tied" else rng.uniform(0.1, 3.0)

    node_weights = [0.0 if weights == "zero nodes" else pick() for _ in range(n)]
    tree = []
    for eid, (u, v) in enumerate(pairs):
        a, b = (label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
        tree.append((a, b, pick(), eid))
    return n, node_weights, tree


def _shadow_values(n, node_weights, tree):
    index = _ChainIndex(node_weights, tree, indexed_adjacency(n, tree))
    return {
        (a, b): index.path_weight_if_eligible(a, b) for a in range(n) for b in range(n) if a != b
    }


@pytest.mark.parametrize("weights", CHAIN_WEIGHTS)
@pytest.mark.parametrize("shape", CHAIN_SHAPES)
def test_chain_index_matches_tree_path_oracle(shape, weights):
    for seed in range(20):
        n, node_weights, tree = _shaped_tree(shape, weights, seed)
        plain = [(a, b, w) for a, b, w, _ in tree]
        for (a, b), got in _shadow_values(n, node_weights, tree).items():
            want = oracles.chain_shadow(node_weights, plain, a, b)
            assert (got is None) == (want is None), (shape, weights, seed, a, b)
            if want is not None:
                assert math.isclose(got, want, rel_tol=1e-12), (shape, weights, seed, a, b)


# sha256 of repr() of every ordered pair's shadow value on the trees below,
# recorded before the index was last rewritten.  It holds the float order of
# the chain sums directly, where the output digests see it only through
# which class edges happen to be shadowed.
CHAIN_INDEX_PIN = "29d3a63926f927d29cd625fb7b4a52078de591328f20cf8c5f4bc764c804a554"


def test_chain_index_values_are_pinned():
    values = []
    for shape in CHAIN_SHAPES:
        for weights in CHAIN_WEIGHTS:
            for seed in (101, 102):
                found = _shadow_values(*_shaped_tree(shape, weights, seed))
                values += [found[pair] for pair in sorted(found)]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == CHAIN_INDEX_PIN


# ---------------------------------------------------------------------------
# cluster graph lift


def test_cluster_graph_drops_shadowed_edges():
    g, ids, sub = _subdivided(2, n=10, m=20, w_bar=0.6)
    lvl = build_level1(sub, 1.2)
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
    cg = build_cluster_graph(
        lvl, [heavy_id], g2, t, eps, level_scale=5.0, prev_scale=1.2, w_bar=sub.w_bar
    )
    if lvl.cluster_of[cu] != lvl.cluster_of[cv]:
        # adjacent clusters joined by one tree piece: shadow weight is well
        # under slack * 10000, so the class edge must be gone
        assert cg.class_edges == []


def test_cluster_graph_keeps_min_parallel_edge():
    g, ids, sub = _subdivided(4, n=8, m=12, w_bar=0.7)
    lvl = build_level1(sub, 1.4)
    # find two vertices in different clusters
    pairs = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if lvl.cluster_of[u] != lvl.cluster_of[v]
    ]
    u, v = pairs[0]
    # weights far below any tree path so the shadow test cannot delete them
    extra = list(g.edges) + [(u, v, 0.005), (u, v, 0.004), (v, u, 0.006)]
    g2 = type(g)(g.n, extra)
    ids3 = [g.m, g.m + 1, g.m + 2]
    cg = build_cluster_graph(
        lvl, ids3, g2, 3.0, 0.3, level_scale=0.005, prev_scale=1.4, w_bar=sub.w_bar
    )
    kept = [(w, src) for _, _, w, src in cg.class_edges]
    assert kept == [(0.004, g.m + 1)]


def test_tree_adjacency_is_built_once_per_level(monkeypatch):
    built = []

    def counting(n, edges):
        built.append(n)
        return indexed_adjacency(n, edges)

    monkeypatch.setattr(hierarchy, "indexed_adjacency", counting)
    res = light_spanner_general(
        random_connected_graph(120, 400, seed=5), PipelineConfig(mode="general", eps_user=0.25)
    )
    assert len(built) == len(res.stats["levels"]) > 0

    g, ids, sub = _subdivided(4, n=8, m=12, w_bar=0.7)
    lvl = build_level1(sub, 1.4)
    cg = build_cluster_graph(lvl, [], g, 3.0, 0.3, level_scale=2.8, prev_scale=1.4, w_bar=sub.w_bar)
    assert cg.tree_adj == indexed_adjacency(lvl.cluster_count, lvl.tree_edges)
    assert _State(cg, 0.3, False).tree_adj is cg.tree_adj


# ---------------------------------------------------------------------------
# contraction


def test_contract_level_closes_cycles_into_a_spanning_tree():
    # level tree: path 0-1-2-3-4 over five single-vertex clusters.  Groups
    # A={0,3}, B={1,4}, C={2} (A and B glued by class edges, not by the
    # tree) turn it into a triangle A-B-C with two parallel A-B candidates.
    lvl = ClusterLevel(
        members=[[v] for v in range(5)],
        potentials=[1.0] * 5,
        tree_edges=[
            (0, 1, 2.0, 50),  # A-B, loses the tie on source id
            (1, 2, 1.0, 60),  # B-C
            (2, 3, 3.0, 70),  # C-A, closes the cycle
            (3, 4, 2.0, 9),  # A-B, kept candidate
        ],
        cluster_of=list(range(5)),
    )
    outcome = SimpleNamespace(groups=[[0, 3], [1, 4], [2]], adm=[5.0, 6.0, 7.0])
    nxt = contract_level(lvl, outcome)
    # one candidate per node pair, min (weight, source id), then Kruskal
    assert nxt.tree_edges == [(1, 2, 1.0, 60), (0, 1, 2.0, 9)]
    assert len(nxt.tree_edges) == nxt.cluster_count - 1
    assert nxt.members == [[0, 3], [1, 4], [2]]
    assert nxt.potentials == [5.0, 6.0, 7.0]
    assert nxt.cluster_of == [0, 1, 2, 0, 1]


def _assert_cluster_map_matches_members(lvl, n_original):
    assert len(lvl.cluster_of) == n_original
    member_sets = [set(ms) for ms in lvl.members]
    for v in range(n_original):
        for c, ms in enumerate(member_sets):
            assert (lvl.cluster_of[v] == c) == (v in ms)


@given(st.integers(0, 10_000), st.integers(4, 14))
@settings(max_examples=60, deadline=None)
def test_cluster_map_matches_members(seed, n):
    rng = random.Random(seed)
    _, _, sub = _subdivided(seed, n=n, m=n + n // 2, w_bar=rng.choice([0.3, 0.8]))
    lvl = build_level1(sub, 1.6)
    _assert_cluster_map_matches_members(lvl, sub.n_original)
    # any partition of the clusters contracts: the quotient of a tree is connected
    ids = list(range(lvl.cluster_count))
    rng.shuffle(ids)
    k = rng.randint(1, len(ids))
    outcome = SimpleNamespace(groups=[ids[j::k] for j in range(k)], adm=[0.0] * k)
    _assert_cluster_map_matches_members(contract_level(lvl, outcome), sub.n_original)


# ---------------------------------------------------------------------------
# level-1 pin: build_level1's output on seeded trees, bit for bit


def _level1_pin_cases():
    """(sub, scale) pairs: uniform weights, tied weights cut into equal pieces,
    scales that carve many clusters, merge the root piece, or carve nothing."""
    for seed in range(4):
        g = weighted_graph(60, 150, seed)
        ids = build_mst(g)
        for w_bar in (0.5, 2.0):
            sub = subdivide_mst(g, ids, w_bar)
            for scale in (w_bar, 2.5, 6.0, 20.0, 1e9):
                yield sub, scale
        rng = random.Random(seed)
        pairs = weighted_graph(40, 90, seed).edges
        for weights, w_bar in (((1.0, 2.0, 3.0), 1.0), ((0.1, 0.2, 0.3), 0.3)):
            tied = WeightedGraph(40, [(u, v, rng.choice(weights)) for u, v, _ in pairs])
            sub = subdivide_mst(tied, build_mst(tied), w_bar)
            for k in (1, 2, 3, 7):
                yield sub, k * w_bar


LEVEL1_PIN = "d3804c8514d44523702432bbf24802f4a6e3438b2b65399fec1aecd727f61241"


def test_level1_outputs_are_pinned():
    outs, merged, whole = [], 0, 0
    for sub, scale in _level1_pin_cases():
        lvl = build_level1(sub, scale)
        reps = [min(ms) for ms in lvl.members]  # build_hi takes the least member as representative
        outs.append((lvl.members, lvl.potentials, reps, lvl.tree_edges, lvl.cluster_of))
        whole += lvl.cluster_count == 1
        merged += lvl.cluster_count > 1 and lvl.members[lvl.cluster_of[0]][0] != 0
    assert merged and whole  # the root-piece merge and the no-carve cluster both occur
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == LEVEL1_PIN
