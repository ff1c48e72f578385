import math

import pytest

import oracles
from lightspan.generate import (
    grid_graph,
    planar_triangulation,
    random_connected_graph,
    uniform_points,
)


def test_random_graph_shape_and_connectivity():
    for seed in range(6):
        g = random_connected_graph(30, 80, seed=seed)
        assert g.n == 30 and g.m == 80
        g.validate()
        assert oracles.is_connected(g.n, [(u, v) for u, v, _ in g.edges])


def test_random_graph_weight_range():
    g = random_connected_graph(20, 60, seed=0, w_lo=2.0, w_hi=3.0)
    assert all(2.0 <= w <= 3.0 for _, _, w in g.edges)


def test_random_graph_deterministic():
    a = random_connected_graph(25, 70, seed=11)
    b = random_connected_graph(25, 70, seed=11)
    assert a.edges == b.edges
    c = random_connected_graph(25, 70, seed=12)
    assert a.edges != c.edges


def test_random_graph_tree_case():
    g = random_connected_graph(15, 14, seed=4)
    assert g.m == 14
    assert oracles.is_connected(g.n, [(u, v) for u, v, _ in g.edges])


def test_random_graph_infeasible_m():
    with pytest.raises(ValueError):
        random_connected_graph(5, 3, seed=0)
    with pytest.raises(ValueError):
        random_connected_graph(5, 11, seed=0)


def test_uniform_points_distinct_and_bounded():
    p = uniform_points(300, 2, seed=1)
    assert p.n == 300 and p.d == 2
    p.validate()
    assert len(set(p.points)) == 300
    assert all(0.0 <= c <= 1.0 for pt in p.points for c in pt)


def test_uniform_points_deterministic():
    assert uniform_points(40, 3, seed=9).points == uniform_points(40, 3, seed=9).points


def test_grid_graph_counts():
    g = grid_graph(4, 6, seed=0)
    assert g.n == 24
    assert g.m == 4 * 5 + 6 * 3
    assert all(w == 1.0 for _, _, w in g.edges)


def test_grid_graph_jitter_keeps_weights_positive():
    g = grid_graph(5, 5, seed=2, jitter=0.5)
    assert all(1.0 <= w <= 1.5 for _, _, w in g.edges)


@pytest.mark.parametrize("jitter", [-2.0, -1e-300, math.inf, math.nan])
def test_grid_graph_rejects_negative_or_non_finite_jitter(jitter):
    with pytest.raises(ValueError, match="jitter must be a finite float >= 0"):
        grid_graph(3, 3, seed=0, jitter=jitter)


def test_planar_triangulation_is_planar_sized():
    for seed in range(4):
        g = planar_triangulation(80, seed=seed)
        assert g.n == 80
        assert g.m <= 3 * g.n - 6
        g.validate()
        assert oracles.is_connected(g.n, [(u, v) for u, v, _ in g.edges])
