import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lightspan.ssa import (
    SsaInput,
    _cone_count_2d,
    REACH_SLACK,
    _sampling_spanner,
    cone_reach_2d,
    cone_selector,
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
# cones


def test_cone_count_2d():
    assert _cone_count_2d(math.pi / 3) == 6
    assert _cone_count_2d(0.25) == math.ceil(2 * math.pi / 0.25)


def test_cone_index_2d_walks_the_circle():
    eps = math.pi / 3
    tau, cone_of = cone_selector(2, eps)
    assert tau == _cone_count_2d(eps)
    seen = [cone_of((math.cos(a), math.sin(a))) for a in [j * eps + eps / 2 for j in range(tau)]]
    assert seen == list(range(tau))
    # angles beyond the last boundary still land in the final cone
    assert cone_of((math.cos(-0.001), math.sin(-0.001))) == tau - 1


def test_cone_reach_needs_cones_wider_than_its_slack():
    assert cone_reach_2d(3 * REACH_SLACK, (0.0, 0.0), (1.0, 1.0)) is None
    # a seventh cone about 1e-12 wide
    assert cone_reach_2d((2 * math.pi - 1e-12) / 6, (0.0, 0.0), (1.0, 1.0)) is None


@pytest.mark.parametrize("theta", [0.0625, 0.3, 1.0, (2 * math.pi - 1e-8) / 6])
def test_cone_reach_bounds_every_box_point_in_its_cone(theta):
    # the last theta leaves a seventh cone 1e-8 wide.  Points sit at random,
    # on box edges and corners, and on rays just either side of cone
    # boundaries; boxes are sometimes flat.
    tau, cone_of = cone_selector(2, theta)
    rng = random.Random(int(theta * 1000))
    for _ in range(60):
        lo = [rng.uniform(-5.0, 5.0) for _ in range(2)]
        hi = [x + rng.choice([0.0, rng.uniform(0.0, 3.0), rng.uniform(0.0, 1e-6)]) for x in lo]

        def inside(pick_edge):
            pt = [rng.uniform(a, b) for a, b in zip(lo, hi)]
            if pick_edge:
                j = rng.randrange(2)
                pt[j] = rng.choice([lo[j], hi[j]])
            return tuple(pt)

        reach = cone_reach_2d(theta, tuple(lo), tuple(hi))
        corners = [(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]
        for _ in range(5):
            u = rng.choice([inside(False), inside(True), rng.choice(corners)])
            r = reach(u)
            assert len(r) == tau and min(r) >= 0.0
            assert max(r) <= math.dist(lo, hi) * (1.0 + 2 * REACH_SLACK)
            targets = corners + [inside(k % 2 == 0) for k in range(40)]
            for _ in range(20):
                a = rng.choice([rng.randrange(tau) * theta, 2 * math.pi])
                a += rng.choice([-1e-12, 0.0, 1e-12])
                t = rng.uniform(0.0, 10.0)
                ray = (u[0] + t * math.cos(a), u[1] + t * math.sin(a))
                targets.append(tuple(min(max(x, a_), b_) for x, a_, b_ in zip(ray, lo, hi)))
            for v in targets:
                if v != u:
                    cone = cone_of(tuple(b - a for a, b in zip(u, v)))
                    assert math.dist(u, v) <= r[cone]


def test_cone_selector_takes_strict_eps_and_high_dimension():
    # the strict internal eps at d = 3 and the Yao angle at d = 100 only set
    # a count; a cone depends on the direction alone
    for d, theta in ((3, 1 / 256), (3, 0.0625), (100, 0.0625)):
        count, cone_of = cone_selector(d, theta)
        rng = random.Random(d)
        vec = tuple(rng.gauss(0, 1) for _ in range(d))
        assert 0 <= cone_of(vec) < count
        assert cone_of(tuple(7 * c for c in vec)) == cone_of(vec)


def test_cone_selector_at_d1_is_the_sign():
    # the general rule with steps = 0: two cones, split at x < 0
    count, cone_of = cone_selector(1, 0.1)
    assert count == 2
    assert [cone_of((x,)) for x in (3.0, 0.0, -0.0, -1e-300, -2.0)] == [0, 0, 0, 1, 1]


@pytest.mark.parametrize(
    "d, samples", [(1, 200), (2, 600), (3, 4000), (4, 20000), (6, 50000)]
)
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
    kw = {"psi": eps, "gamma": 1.0, **kw}
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


def test_ssa_geom_at_high_dimension_keeps_every_cone():
    # 2^100 * steps^99 cones: the sparsity bound stays an exact int
    d = 100
    pos = {0: (0.0,) * d, 1: (1.0,) + (0.0,) * (d - 1), 2: (0.0, 1.0) + (0.0,) * (d - 2)}
    edges = [(0, 1, 1.0, 0), (0, 2, 1.0, 1)]
    out = ssa_geom(_level_input([0, 1, 2], edges, scale=1.0, eps=0.5), d, pos)
    assert out.pruned == [0, 1]
    assert out.sparsity == cone_selector(d, 0.5)[0]


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
