import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lightspan import graphs
from conftest import point_graph, weighted_graph
from lightspan.graphs import (
    DegeneratePoints,
    DisconnectedGraph,
    FormatError,
    PointSet,
    WeightedGraph,
    build_mst,
    dedup_parallel,
    dijkstra,
    format_graph,
    format_points,
    normalize,
    parse_graph,
    parse_points,
    subdivide_mst,
)


# ---------------------------------------------------------------------------
# text format


def test_graph_round_trip():
    g = WeightedGraph(4, [(0, 1, 1.5), (1, 2, 2.0), (2, 3, 0.25), (0, 3, 7.0)])
    again = parse_graph(format_graph(g))
    assert again.n == g.n
    assert again.edges == g.edges


@given(
    st.integers(2, 8),
    st.integers(0, 20),
    st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_graph_round_trip_random(n, extra, seed):
    g = weighted_graph(n, n - 1 + extra, seed, parallel=True)
    again = parse_graph(format_graph(g))
    assert again.n == g.n and again.m == g.m
    for (u, v, w), (u2, v2, w2) in zip(g.edges, again.edges):
        assert (u, v) == (u2, v2)
        assert w == w2  # repr round-trips floats exactly


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        parse_graph("")
    assert exc.value.line_no == 1

    with pytest.raises(FormatError) as exc:
        parse_graph("3 two\n0 1 1.0\n1 2 1.0\n")
    assert exc.value.line_no == 1

    with pytest.raises(FormatError) as exc:
        parse_graph("3 2\n0 1 1.0\n1 5 1.0\n")
    assert exc.value.line_no == 3

    with pytest.raises(FormatError) as exc:
        parse_graph("3 2\n0 1 1.0\n")
    assert "promised 2" in str(exc.value)


@pytest.mark.parametrize("header", ["0 2", "-3 2"])
def test_parse_graph_rejects_headers_without_vertices(header):
    with pytest.raises(FormatError, match="invalid sizes n="):
        parse_graph(header + "\n")


@pytest.mark.parametrize("header", ["0 2", "-3 2"])
def test_parse_points_rejects_headers_without_points(header):
    with pytest.raises(FormatError, match="invalid sizes n="):
        parse_points(header + "\n")


def test_parse_graph_skips_comments_and_blanks():
    g = parse_graph("# header\n\n2 1\n# edge\n0 1 3.0\n")
    assert g.n == 2 and g.edges == [(0, 1, 3.0)]


def test_parse_graph_rejects_bad_weight():
    with pytest.raises(FormatError):
        parse_graph("2 1\n0 1 -1.0\n")
    with pytest.raises(FormatError):
        parse_graph("2 1\n0 1 nan\n")


def test_points_round_trip():
    ps = PointSet(2, [(0.0, 0.0), (0.25, 1.0), (1.0, 0.5)])
    again = parse_points(format_points(ps))
    assert again.d == 2
    assert again.points == ps.points


def test_points_validate_rejects_duplicates():
    with pytest.raises(DegeneratePoints):
        PointSet(2, [(0.0, 0.0), (0.0, 0.0)]).validate()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_points_validate_rejects_non_finite_coordinates(bad):
    with pytest.raises(DegeneratePoints, match="non-finite"):
        PointSet(2, [(0.0, 0.0), (bad, 1.0)]).validate()
    with pytest.raises(DegeneratePoints, match="non-finite"):
        parse_points(f"2 2\n0 0\n1 {bad}\n")


def test_point_distance_matches_mathdist():
    ps = PointSet(3, [(0.0, 1.0, 2.0), (3.0, 5.0, 7.0)])
    assert ps.distance(0, 1) == math.dist(ps.points[0], ps.points[1])


# ---------------------------------------------------------------------------
# dedup and normalize


def test_dedup_keeps_lightest_parallel_edge():
    g = WeightedGraph(3, [(0, 1, 5.0), (1, 0, 2.0), (1, 2, 1.0), (0, 1, 9.0)])
    d = dedup_parallel(g)
    assert sorted((min(u, v), max(u, v), w) for u, v, w in d.edges) == [
        (0, 1, 2.0),
        (1, 2, 1.0),
    ]


def test_normalize_scales_min_weight_to_one():
    g = WeightedGraph(3, [(0, 1, 4.0), (1, 2, 2.0)])
    gn, scale = normalize(g)
    assert scale == 2.0
    assert min(w for _, _, w in gn.edges) == 1.0
    assert [(u, v, w * scale) for u, v, w in gn.edges] == g.edges


def test_normalize_rejects_an_overflowing_weight_ratio():
    g = WeightedGraph(3, [(0, 1, 1e-300), (1, 2, 1e300)])
    with pytest.raises(ValueError, match="weight ratio exceeds the float range"):
        normalize(g)
    # the widest ratio that still fits is accepted
    gn, _ = normalize(WeightedGraph(2, [(0, 1, 1.0), (0, 1, 1e308)]))
    assert max(w for _, _, w in gn.edges) == 1e308


def test_validate_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 0, 1.0)]).validate()
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 2, 1.0)]).validate()


# ---------------------------------------------------------------------------
# MST


def test_mst_matches_exhaustive_enumeration():
    for seed in range(12):
        g = weighted_graph(6, 10, seed)
        ids = build_mst(g)
        got = sum(g.edges[i][2] for i in ids)
        want = oracles.min_spanning_weight(g.n, g.edges)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_mst_deterministic_under_ties():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 1.0)])
    assert build_mst(g) == build_mst(WeightedGraph(4, list(g.edges)))


def test_mst_raises_on_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_mst(WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]))


# ---------------------------------------------------------------------------
# subdivision


def _mst_chains(g, ids, sub):
    """Per MST edge (in id order), the weights of its chain of tree pieces."""
    chains = []
    pos = 0
    for i in ids:
        prev, v, _ = g.edges[i]
        chain = []
        while True:
            a, b, w = sub.tree_edges[pos]
            assert a == prev
            pos += 1
            chain.append(w)
            if b == v:
                break
            assert b >= g.n  # interior chain vertices are virtual
            prev = b
        chains.append(chain)
    assert pos == len(sub.tree_edges)
    return chains


def test_subdivision_pieces_respect_bound():
    g = weighted_graph(8, 14, seed=3)
    ids = build_mst(g)
    w_bar = 0.9
    sub = subdivide_mst(g, ids, w_bar)
    chains = _mst_chains(g, ids, sub)
    for i, chain in zip(ids, chains):
        assert all(w <= w_bar + 1e-15 for w in chain)
        assert math.isclose(sum(chain), g.edges[i][2], rel_tol=1e-12)
    # the subdivided tree is still a tree on the extended vertex set
    assert len(sub.tree_edges) == sub.extended_vertex_count - 1
    assert sub.extended_vertex_count - g.n == sum(len(c) - 1 for c in chains) > 0


def test_subdivided_tree_is_rooted_preorder():
    for seed in range(6):
        g = weighted_graph(10, 20, seed)
        ids = build_mst(g)
        sub = subdivide_mst(g, ids, 0.4)
        n = sub.extended_vertex_count
        assert sorted(sub.order) == list(range(n))
        assert sub.order[0] == 0 and sub.parent[0] == 0
        seen = {0}
        for v in sub.order[1:]:
            assert sub.parent[v] in seen  # a parent precedes its child
            seen.add(v)
        for a, b, _ in sub.tree_edges:
            assert sub.parent[a] == b or sub.parent[b] == a
        assert sorted(eid for row in sub.adj for _, _, eid in row) == sorted(
            2 * list(range(len(sub.tree_edges)))
        )


def test_subdivide_rejects_a_forest():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError, match="not connected"):
        subdivide_mst(g, [0, 1], 1.0)


def test_subdivision_preserves_total_weight():
    g = weighted_graph(10, 18, seed=5)
    ids = build_mst(g)
    sub = subdivide_mst(g, ids, 0.37)
    total = sum(w for _, _, w in sub.tree_edges)
    want = sum(g.edges[i][2] for i in ids)
    assert math.isclose(total, want, rel_tol=1e-9)


def test_subdivision_leaves_light_edges_alone():
    g = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.25)])
    sub = subdivide_mst(g, [0, 1], 1.0)
    assert sub.extended_vertex_count == g.n
    assert sub.tree_edges == [(0, 1, 0.5), (1, 2, 0.25)]


def test_subdivision_refuses_more_vertices_than_the_budget(monkeypatch):
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    # pieces of 0.25 make 4 + 8 pieces: 3 + 3 + 7 = 13 vertices
    monkeypatch.setattr(graphs, "SUBDIVISION_VERTEX_BUDGET", 13)
    assert subdivide_mst(g, [0, 1], 0.25).extended_vertex_count == 13
    monkeypatch.setattr(graphs, "SUBDIVISION_VERTEX_BUDGET", 12)
    with pytest.raises(ValueError, match="more than 12 vertices"):
        subdivide_mst(g, [0, 1], 0.25)
    # w / w_bar overflows to inf: still a ValueError, not an OverflowError
    with pytest.raises(ValueError, match="more than 12 vertices"):
        subdivide_mst(WeightedGraph(2, [(0, 1, 1e300)]), [0], 1e-300)


# ---------------------------------------------------------------------------
# shortest paths


def test_dijkstra_matches_floyd_warshall():
    for seed in range(10):
        g = weighted_graph(9, 16, seed)
        want = oracles.floyd_warshall(g.n, g.edges)
        adj = g.weighted_adjacency()
        for src in range(g.n):
            got = dijkstra(adj, src)
            for v in range(g.n):
                assert math.isclose(got[v], want[src][v], rel_tol=1e-12, abs_tol=1e-12)


def test_dijkstra_cutoff_leaves_far_vertices_at_inf():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 10.0)])
    dist = dijkstra(g.weighted_adjacency(), 0, cutoff=2.0)
    assert dist[1] == 1.0
    assert math.isinf(dist[2])


def test_dijkstra_targets_match_full_search_exactly():
    for seed in range(12):
        rng = random.Random(seed)
        g = weighted_graph(30, 70, seed)
        if seed % 2:
            # weights like 0.1 and 0.2 make equal-length paths whose float
            # sums differ in the last bit, so ties must resolve the same way
            g = WeightedGraph(g.n, [(u, v, rng.choice((0.1, 0.2, 0.3))) for u, v, _ in g.edges])
        adj = g.weighted_adjacency()
        for src in range(g.n):
            full = dijkstra(adj, src)
            targets = set(rng.sample(range(g.n), rng.randrange(1, 5)))
            got = dijkstra(adj, src, targets=targets)
            for t in targets:
                assert got[t] == full[t]


def test_dijkstra_stops_once_targets_settle():
    path = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    dist = dijkstra(path.weighted_adjacency(), 0, targets={1, 2})
    assert dist[:3] == [0.0, 1.0, 2.0]
    assert math.isinf(dist[3]) and math.isinf(dist[4])


def test_dijkstra_unreachable_target_stays_inf():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    dist = dijkstra(g.weighted_adjacency(), 0, targets={1, 3})
    assert dist[1] == 1.0
    assert math.isinf(dist[3])


def _toward(points, t, shrink):
    return lambda v: math.dist(points[v], points[t]) * shrink


def test_dijkstra_potential_matches_full_search_exactly():
    # the straight-line distance, shrunk as geometric certification does
    cases = []
    for seed in range(8):
        rng = random.Random(seed)
        pts = [(rng.random(), rng.random()) for _ in range(40)]
        cases.append((pts, point_graph(pts, 120, seed), 1 - 1e-9))
    # collinear points a tenth apart with steps of one and two: many
    # equal-length paths, and the bound equals their length in exact arithmetic
    line = [(0.1 * i, 0.0) for i in range(25)]
    steps = [(i, j) for i in range(25) for j in (i + 1, i + 2) if j < 25]
    cases.append((line, WeightedGraph(25, [(i, j, math.dist(line[i], line[j])) for i, j in steps]), 1 - 1e-9))
    # an integer lattice, where path sums are exact: the unshrunk bound is
    # then attained by every monotone path, and ties must still go the same way
    lattice = [(float(i), float(j)) for i in range(7) for j in range(7)]
    grid = [(a, b) for a in range(49) for b in (a + 1, a + 7) if b < 49 and (b - a == 7 or b % 7)]
    cases.append((lattice, WeightedGraph(49, [(a, b, 1.0) for a, b in grid]), 1.0))
    for k, (pts, g, shrink) in enumerate(cases):
        rng = random.Random(k)
        adj = g.weighted_adjacency()
        for src in range(g.n):
            t = rng.randrange(g.n)
            got = dijkstra(adj, src, targets=(t,), potential=_toward(pts, t, shrink))
            assert got[t] == dijkstra(adj, src)[t]


def test_dijkstra_potential_steers_the_search():
    line = [(float(i), 0.0) for i in range(21)]
    adj = WeightedGraph(21, [(i, i + 1, 1.0) for i in range(20)]).weighted_adjacency()
    plain = dijkstra(adj, 10, targets={12})
    goal = dijkstra(adj, 10, targets={12}, potential=_toward(line, 12, 1.0))
    assert plain[12] == goal[12] == 2.0
    # the plain search also settles the vertices behind the source
    assert plain[8] == 2.0 and math.isinf(goal[8])


def test_dijkstra_potential_reopens_improved_vertices():
    # s=0, a=1, b=2, c=3, t=4; the bound at a is tight but not consistent,
    # so c is first settled through b at 4 and later improved through a
    adj = WeightedGraph(5, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 3.0), (3, 4, 3.0)]).weighted_adjacency()
    bound = [0.0, 4.0, 0.0, 0.0, 0.0]
    assert dijkstra(adj, 0, targets={4}, potential=bound.__getitem__)[4] == 5.0


@pytest.mark.parametrize(
    "kwargs", [{}, {"targets": {1, 2}}, {"targets": set()}, {"targets": {2}, "cutoff": 5.0}]
)
def test_dijkstra_potential_needs_one_target_and_no_cutoff(kwargs):
    adj = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]).weighted_adjacency()
    with pytest.raises(ValueError, match="potential"):
        dijkstra(adj, 0, potential=lambda v: 0.0, **kwargs)
