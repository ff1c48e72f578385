import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lightspan.ssa import (
    DEFAULT_BETA,
    SsaInput,
    _cone_count_2d,
    _cone_index_2d,
    _sampling_spanner,
    cone_selector,
    direction_net,
    ssa_general,
    ssa_geom,
    ssa_minor,
    unweighted_spanner,
)


def _random_pairs(n, m, seed):
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# unweighted spanner


def test_cycle_c5_k2_keeps_everything():
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    assert unweighted_spanner(5, pairs, 2) == [0, 1, 2, 3, 4]


def test_k4_k2_keeps_a_tree():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    kept = unweighted_spanner(4, pairs, 2)
    assert kept == [0, 1, 2]


def test_greedy_output_girth_exceeds_2k():
    for seed in range(6):
        pairs = _random_pairs(24, 60, seed)
        for k in (2, 3):
            kept = unweighted_spanner(24, pairs, k)
            sub = [pairs[i] for i in kept]
            assert oracles.girth(24, sub) > 2 * k


def test_unweighted_spanner_exhaustive_small():
    for n in (3, 4):
        for pairs in oracles.all_connected_graphs(n):
            for k in (2, 3):
                kept = unweighted_spanner(n, pairs, k)
                sub = [pairs[i] for i in kept]
                for u, v in pairs:
                    assert oracles.bfs_hops(n, sub, u)[v] <= 2 * k - 1
                assert len(kept) <= n ** (1.0 + 1.0 / k) + n


@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_unweighted_spanner_random_stretch(seed, k):
    rng = random.Random(seed)
    n = rng.randrange(6, 30)
    m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
    pairs = _random_pairs(n, m, seed)
    kept = unweighted_spanner(n, pairs, k)
    sub = [pairs[i] for i in kept]
    for u, v in pairs:
        assert oracles.bfs_hops(n, sub, u)[v] <= 2 * k - 1


def test_sampling_spanner_contract():
    # the randomized path, forced directly: stretch and near-linear size
    for seed, n, m in ((0, 60, 400), (1, 80, 900)):
        pairs = _random_pairs(n, m, seed)
        for k in (2, 3):
            kept = _sampling_spanner(n, pairs, k)
            sub = [pairs[i] for i in kept]
            for u, v in pairs:
                assert oracles.bfs_hops(n, sub, u)[v] <= 2 * k - 1
            assert len(kept) <= (4.0 * k * n ** (1.0 / k) + 2.0) * n


def test_unweighted_spanner_rejects_small_k():
    with pytest.raises(ValueError):
        unweighted_spanner(3, [(0, 1)], 1)


# ---------------------------------------------------------------------------
# direction nets and cones


def test_cone_count_2d():
    assert _cone_count_2d(math.pi / 3) == 6
    assert _cone_count_2d(0.25) == math.ceil(2 * math.pi / 0.25)


def test_cone_index_2d_walks_the_circle():
    eps = math.pi / 3
    tau = _cone_count_2d(eps)
    seen = [
        _cone_index_2d(math.cos(a), math.sin(a), eps, tau)
        for a in [j * eps + eps / 2 for j in range(tau)]
    ]
    assert seen == list(range(tau))
    # angles beyond the last boundary still land in the final cone
    assert _cone_index_2d(math.cos(-0.001), math.sin(-0.001), eps, tau) == tau - 1


def test_direction_net_resolution():
    for d, eps in ((3, 0.4), (4, 0.6)):
        net = direction_net(d, eps)
        rng = random.Random(7)
        for _ in range(150):
            vec = [rng.gauss(0, 1) for _ in range(d)]
            norm = math.sqrt(sum(c * c for c in vec))
            unit = [c / norm for c in vec]
            best = max(sum(a * b for a, b in zip(unit, nv)) for nv in net)
            assert math.acos(min(1.0, best)) <= eps + 1e-9


def test_direction_net_rejects_low_dimension():
    from lightspan.ssa import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        direction_net(2, 0.3)


def test_direction_net_refuses_oversized_grids():
    # the Yao base's cone angle at the default eps_base: 100,488 grid points
    # at d = 3, 16.6 million at d = 4, refused before anything is allocated
    assert cone_selector(3, 0.0625)[0] > 64
    with pytest.raises(ValueError, match="grid points"):
        cone_selector(4, 0.0625)


@pytest.mark.parametrize("d, samples", [(1, 200), (2, 600), (3, 4000)])
def test_same_cone_vectors_lie_within_theta(d, samples):
    theta = 0.6
    count, cone_of = cone_selector(d, theta)
    rng = random.Random(11 + d)
    by_cone: dict[int, list[list[float]]] = {}
    for _ in range(samples):
        vec = tuple(rng.gauss(0, 1) for _ in range(d))
        cone = cone_of(vec)
        assert 0 <= cone < count
        norm = math.sqrt(sum(c * c for c in vec))
        by_cone.setdefault(cone, []).append([c / norm for c in vec])
    assert any(len(units) > 1 for units in by_cone.values())
    for units in by_cone.values():
        for a in units:
            for b in units:
                cos = sum(x * y for x, y in zip(a, b))
                assert math.acos(max(-1.0, min(1.0, cos))) <= theta + 1e-9


# ---------------------------------------------------------------------------
# backends on hand-built level inputs


def _level_input(nodes, edges, scale, eps=0.1, **kw):
    return SsaInput(nodes=nodes, edges=edges, level_scale=scale, eps=eps, **kw)


def test_ssa_input_validate_rejects_out_of_window_weight():
    inp = _level_input([0, 1], [(0, 1, 5.0, 0)], scale=1.0)
    with pytest.raises(ValueError):
        inp.validate()


def test_ssa_input_validate_rejects_foreign_endpoint():
    inp = _level_input([0, 1], [(0, 2, 1.0, 0)], scale=1.0)
    with pytest.raises(ValueError):
        inp.validate()


def test_ssa_geom_keeps_nearest_per_cone():
    # three points east of the origin inside one cone: only the nearest stays
    pos = {0: (0.0, 0.0), 1: (10.0, 0.1), 2: (10.0, 0.2), 3: (10.0, 0.3)}
    edges = [(0, 1, 10.0, 11), (0, 2, 10.0, 12), (0, 3, 10.0, 13)]
    inp = _level_input([0, 1, 2, 3], edges, scale=10.0, eps=0.5)
    out = ssa_geom(inp, 2, pos)
    assert 0 in out.pruned  # nearest by tie-break: distance then node id
    assert out.sparsity == _cone_count_2d(0.5)


def test_ssa_geom_cones_separate_directions():
    pos = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (0.0, 10.0), 3: (-10.0, 0.0)}
    edges = [(0, 1, 10.0, 0), (0, 2, 10.0, 1), (0, 3, 10.0, 2)]
    inp = _level_input([0, 1, 2, 3], edges, scale=10.0, eps=0.5)
    out = ssa_geom(inp, 2, pos)
    assert out.pruned == [0, 1, 2]  # all in different cones


def test_ssa_geom_strict_needs_small_eps():
    inp = _level_input([0, 1], [(0, 1, 1.0, 0)], scale=1.0, eps=0.5, strict=True)
    with pytest.raises(ValueError):
        ssa_geom(inp, 2, {0: (0.0, 0.0), 1: (1.0, 0.0)})


def test_ssa_general_maps_back_to_source_positions():
    nodes = [10, 20, 30, 40]
    edges = [
        (10, 20, 1.0, 7),
        (20, 30, 1.0, 8),
        (30, 40, 1.0, 9),
        (40, 10, 1.0, 10),
        (10, 30, 1.0, 11),
    ]
    inp = _level_input(nodes, edges, scale=1.0)
    out = ssa_general(inp, k=2)
    sub = [(edges[i][0], edges[i][1]) for i in out.pruned]
    idx = {v: j for j, v in enumerate(nodes)}
    jsub = [(idx[a], idx[b]) for a, b in sub]
    for a, b, _, _ in edges:
        assert oracles.bfs_hops(4, jsub, idx[a])[idx[b]] <= 3


def test_ssa_minor_is_identity():
    edges = [(0, 1, 1.0, 3), (1, 2, 1.0, 4)]
    inp = _level_input([0, 1, 2], edges, scale=1.0)
    out = ssa_minor(inp)
    assert out.pruned == [0, 1]
    assert out.stretch_constant == 0.0


def test_stretch_constants():
    inp = _level_input([0, 1], [(0, 1, 1.0, 0)], scale=1.0, beta=DEFAULT_BETA)
    assert ssa_general(inp, 2).stretch_constant == 2.0 * DEFAULT_BETA + 1.0
    pos = {0: (0.0, 0.0), 1: (1.0, 0.0)}
    assert ssa_geom(inp, 2, pos).stretch_constant == 2.0 * (19.0 * DEFAULT_BETA + 14.0)
