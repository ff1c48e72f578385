import math
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lightspan.clustering import STRICT_EPS, _carve_ball, _State, cluster_level, step1_high_nodes
from lightspan.graphs import indexed_adjacency
from lightspan.hierarchy import POTENTIAL_RATIO, ClusterGraph

G = POTENTIAL_RATIO
EPS = STRICT_EPS  # 1/256, the regime where every internal bound is asserted
L = 1.0


def make_cg(node_weights, tree_pairs, class_pairs, scale=L, prev=None, w_bar=None):
    """Cluster graph with synthetic ids: tree/class source ids are positional."""
    if prev is None:
        prev = EPS * scale
    if w_bar is None:
        w_bar = scale * 1e-6
    return ClusterGraph(
        node_weights=list(node_weights),
        tree_edges=[(u, v, w, i) for i, (u, v, w) in enumerate(tree_pairs)],
        tree_adj=indexed_adjacency(len(node_weights), tree_pairs),
        class_edges=[(u, v, w, i) for i, (u, v, w) in enumerate(class_pairs)],
        level_scale=scale,
        prev_scale=prev,
        w_bar=w_bar,
        members=[[v] for v in range(len(node_weights))],
    )


def path_graph(n, node_w, tree_w, class_pairs=()):
    tree = [(i, i + 1, tree_w) for i in range(n - 1)]
    return make_cg([node_w] * n, tree, list(class_pairs))


def check_partition(cg, out):
    seen = sorted(v for grp in out.groups for v in grp)
    assert seen == list(range(cg.n_nodes))


def check_windows(cg, out):
    for adm, collapse in zip(out.adm, out.collapse):
        if not collapse:
            assert adm >= cg.level_scale * (1.0 - 1e-9)
            assert adm <= G * cg.level_scale * (1.0 + 1e-9)


def check_no_deep_heavy_contact(cg, out):
    for a, b, _, _ in cg.class_edges:
        ka, kb = out.node_kind[a], out.node_kind[b]
        assert not (ka == "high" and kb == "low-")
        assert not (kb == "high" and ka == "low-")


# ---------------------------------------------------------------------------
# star with a heavily connected hub


def test_step1_groups_heavy_hub_with_whole_neighborhood():
    hub_degree = int(2 * G / EPS) + 40
    n = hub_degree + 1
    node_w = 2.0 * EPS * L
    tree = [(i, i + 1, L * 1e-6) for i in range(n - 1)]
    classes = [(0, j, 0.999 * L) for j in range(1, n)]
    cg = make_cg([node_w] * n, tree, classes)
    out = cluster_level(cg, EPS, strict=True)

    check_partition(cg, out)
    check_windows(cg, out)
    check_no_deep_heavy_contact(cg, out)
    assert out.tags.count("Step1") == 1
    star = out.groups[out.tags.index("Step1")]
    assert len(star) >= 2 * G / EPS
    assert 0 in star
    assert out.node_kind[0] == "high"
    assert not out.degenerate


def test_step1_blocked_center_joins_its_least_grouped_neighbors_part():
    # at eps 0.9 a node is heavy from 69 class edges.  Center 0 stars over
    # 2..70; center 1 reaches 70 and 5 (grouped by 0) and 71..137, so it is
    # blocked and joins through one class edge, the one to its least grouped
    # neighbor 5; its other neighbors then join through their edge to it.
    eps = 0.9
    classes = [(0, v, L) for v in range(2, 71)] + [(1, 70, L), (1, 5, L)]
    classes += [(1, v, L) for v in range(71, 138)]
    cg = make_cg([0.0] * 138, [(v, v + 1, L) for v in range(137)], classes)
    state = _State(cg, eps, False)
    assert step1_high_nodes(state) == [0, 1]
    assert len(state.parts) == 1 and set(state.owner) == {0}
    # edges 0..68 form the star, 70 is (1, 5) and 71.. are 1's own; 69 = (1, 70) is not used
    assert state.parts[0].class_eids == list(range(69)) + list(range(70, 138))


# ---------------------------------------------------------------------------
# spider whose center is the only branching node


def test_step2_carves_ball_around_branching_node():
    node_w = EPS * L
    leg = 800  # about 3.1 L of node weight per leg
    tree = []
    nid = 1
    legs = []
    for _ in range(3):
        chain = []
        prev = 0
        for _ in range(leg):
            tree.append((prev, nid, L * 1e-6))
            chain.append(nid)
            prev = nid
            nid += 1
        legs.append(chain)
    cg = make_cg([node_w] * nid, tree, [])
    out = cluster_level(cg, EPS, strict=True)

    check_partition(cg, out)
    check_windows(cg, out)
    assert "Step2" in out.tags
    ball = out.groups[out.tags.index("Step2")]
    assert 0 in ball
    need = cg.level_scale / (2 * G * cg.prev_scale)
    assert len(ball) >= need
    assert not out.degenerate


def test_step4_merged_window_is_a_contiguous_window_plus_its_class_edge():
    # the one place a part gets a cycle: both ends of a class edge lie on
    # one path, so step 4 merges their windows into one window plus the edge
    n = 60
    cg = make_cg([0.2 * L] * n, [(v, v + 1, 0.1 * L) for v in range(n - 1)], [(30, 31, 0.9 * L)])
    out = cluster_level(cg, 0.25)
    (j,) = [j for j, tag in enumerate(out.tags) if tag == "Step4"]
    part = sorted(out.groups[j])
    assert part == list(range(part[0], part[-1] + 1)) and {30, 31} <= set(part)
    assert out.class_eids[j] == [0]
    nw = {v: cg.node_weights[v] for v in part}
    edges = [cg.tree_edges[v][:3] for v in part[:-1]] + [cg.class_edges[0][:3]]
    assert out.adm[j] == oracles.augmented_diameter_paths(nw, edges)


def test_carve_ball_matches_the_brute_force_ball():
    # seeded node-weighted trees, some nodes already grouped; a tree depth of
    # a few L makes most balls stop at the level scale on some branch
    stopped = blocked = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randrange(1, 80)
        node_w = [rng.uniform(0.0, 0.3 * L) for _ in range(n)]
        tree = [
            (v - 1 if rng.random() < 0.6 else rng.randrange(v), v, rng.uniform(0.0, 0.2 * L))
            for v in range(1, n)
        ]
        grouped = set(rng.sample(range(n), rng.randrange(n // 3 + 1)))
        phi = rng.choice([v for v in range(n) if v not in grouped])
        state = _State(make_cg(node_w, tree, []), EPS, False)
        if grouped:
            xid = state.new_part("Step1")
            for v in sorted(grouped):
                state.assign(v, xid)
        ball, radius = _carve_ball(state, phi)
        want, want_radius, want_eids = oracles.tree_ball(node_w, tree, grouped, phi, L)
        assert sorted(ball) == want
        assert radius == want_radius
        part = state.parts[-1]
        assert part.tag == "Step2" and part.nodes == want
        assert sorted(part.tree_eids) == sorted(want_eids)
        assert all(state.owner[v] == len(state.parts) - 1 for v in want)
        stopped += radius >= L
        blocked += any(u in grouped for v in want for u, _, _ in state.tree_adj[v])
    assert stopped >= 10 and blocked >= 10


# ---------------------------------------------------------------------------
# degenerate levels: nothing qualifies for steps 1, 2 or 4


def test_short_tree_collapses_in_degenerate_level():
    cg = path_graph(40, EPS * L, L * 1e-6, class_pairs=[(3, 30, 0.9 * L)])
    out = cluster_level(cg, EPS, strict=True)

    check_partition(cg, out)
    assert out.degenerate
    assert out.tags == ["Step5-pref"]
    assert out.collapse == [True]
    assert set(out.node_kind) == {"low-"}
    assert len(cg.class_edges) <= 4 * G / EPS**2


def test_long_bare_path_splits_into_scale_pieces():
    n = 2600  # about 10 L of node weight
    cg = path_graph(n, EPS * L, L * 1e-6)
    out = cluster_level(cg, EPS, strict=True)

    check_partition(cg, out)
    check_windows(cg, out)
    assert out.degenerate
    assert all(t in ("Step5-pref", "Step5-intrnl") for t in out.tags)
    assert "Step5-intrnl" in out.tags
    assert not any(out.collapse)
    # a degenerate level bars the whole vertex set from class-edge contact
    assert set(out.node_kind) == {"low-"}
    assert len(cg.class_edges) <= 4 * G / EPS**2


def test_interior_pieces_lose_class_contact_on_busy_levels():
    # one heavy hub keeps the level out of the degenerate case; the long
    # bare tail then splits, and only its interior pieces turn low-
    hub_degree = int(2 * G / EPS) + 10
    n_star = hub_degree + 1
    tail = 2600
    node_w = [2.0 * EPS * L] * n_star + [EPS * L] * tail
    tree = [(i, i + 1, L * 1e-6) for i in range(n_star + tail - 1)]
    classes = [(0, j, 0.999 * L) for j in range(1, n_star)]
    cg = make_cg(node_w, tree, classes)
    out = cluster_level(cg, EPS, strict=True)

    check_partition(cg, out)
    check_windows(cg, out)
    check_no_deep_heavy_contact(cg, out)
    assert not out.degenerate
    assert "Step5-intrnl" in out.tags
    for grp, tag in zip(out.groups, out.tags):
        if tag == "Step5-intrnl":
            for v in grp:
                assert out.node_kind[v] == "low-"


def test_interior_piece_consumes_exactly_what_it_pays():
    # binary-friendly weights make the potential bookkeeping exact: a bare
    # path piece has adm = node weights + tree weights, so the corrected
    # drop (local change plus consumed tree weight) is exactly zero
    n = 2600
    cg = path_graph(n, 1.0 / 256.0, 1.0 / 4096.0)
    out = cluster_level(cg, EPS, strict=True)
    assert "Step5-intrnl" in out.tags
    for tag, corrected in zip(out.tags, out.corrected_change):
        if tag == "Step5-intrnl":
            assert corrected == 0.0


# ---------------------------------------------------------------------------
# deep class edges force interval pairing


def test_step4_pairs_deep_class_edge_intervals():
    n = 2600
    mid1, mid2 = 900, 1700
    cg = path_graph(n, EPS * L, L * 1e-6, class_pairs=[(mid1, mid2, 0.95 * L)])
    out = cluster_level(cg, EPS, strict=True)

    check_partition(cg, out)
    check_windows(cg, out)
    check_no_deep_heavy_contact(cg, out)
    assert "Step4" in out.tags
    paired = out.groups[out.tags.index("Step4")]
    assert mid1 in paired and mid2 in paired
    assert not out.degenerate


def test_diameter_path_follows_tree_edges_across_wide_weights():
    # weights spanning ~10^15: the leaf 3 hangs off the path at a distance
    # within float rounding of its neighbor's, so a walk that matches
    # distances up to a tolerance can step onto it and never return
    cg = make_cg([0.0] * 4, [(1, 3, 1e-3), (0, 1, 1e12), (1, 2, 1e12)], [])

    def give_up(signum, frame):
        raise TimeoutError("diameter_path did not return")

    old = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(5)
    try:
        found = _State(cg, 0.25, False).diameter_path([0, 1, 2, 3])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    path, prefix, eids, adm = found
    assert path == [2, 1, 0]
    assert eids == [2, 1]
    assert prefix == [0.0, 1e12, 2e12]
    assert adm == 2e12


def test_strict_mode_rejects_large_eps():
    cg = path_graph(5, EPS * L, L * 1e-6)
    with pytest.raises(ValueError):
        cluster_level(cg, 0.25, strict=True)


# ---------------------------------------------------------------------------
# randomized shapes, strict bounds on


def _random_cluster_graph(seed):
    rng = random.Random(seed)
    n = rng.randrange(50, 2200)
    path_bias = rng.random() < 0.5
    node_w = [rng.uniform(EPS * L, G * EPS * L) for _ in range(n)]
    tree = []
    for v in range(1, n):
        parent = v - 1 if path_bias and rng.random() < 0.9 else rng.randrange(v)
        tree.append((parent, v, rng.uniform(0.0, EPS * L / 10.0)))
    classes = []
    for _ in range(rng.randrange(0, 12)):
        a, b = rng.sample(range(n), 2)
        classes.append((a, b, rng.uniform(0.8 * L, L)))
    return make_cg(node_w, tree, classes)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_shapes_satisfy_partition_invariants(seed):
    cg = _random_cluster_graph(seed)
    out = cluster_level(cg, EPS, strict=True)
    check_partition(cg, out)
    check_windows(cg, out)
    check_no_deep_heavy_contact(cg, out)
    for corrected in out.corrected_change:
        assert corrected >= -1e-9 * cg.level_scale
    if out.degenerate and not any(out.collapse):
        assert len(cg.class_edges) <= 4 * G / EPS**2


def test_unit_grid_regression():
    # contracted 2d grid: many tied diameter endpoints with side subtrees;
    # exercises the re-seeding of low-degree nodes that still hold subtrees
    rows, cols = 40, 65
    node_w = [EPS * L] * (rows * cols)
    tree = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                tree.append((v, v + 1, EPS * L / 20.0))
            elif r + 1 < rows:
                tree.append((v, v + cols, EPS * L / 20.0))
    # spanning tree: rows chained left-to-right, joined at the right edge
    cg = make_cg(node_w, tree, [])
    out = cluster_level(cg, EPS, strict=True)
    check_partition(cg, out)
    check_windows(cg, out)


# ---------------------------------------------------------------------------
# outcome pin: every field but the counters, bit for bit


CLUSTERING_PIN = "ca4bfcadfcdab8e864230e92bc1c2ab15a3aa07100afba7a7934218672c9e3ad"


def test_clustering_outcomes_are_pinned(monkeypatch):
    import dataclasses
    import hashlib

    import lightspan.pipeline as pipeline
    from lightspan.generate import random_connected_graph

    outs = []
    seen = {"step3": 0, "step4": 0}

    def record(out, cg):
        # the outcome's fields, then the level's scale
        outs.append([getattr(out, f.name) for f in dataclasses.fields(out) if f.name != "counters"])
        outs[-1].append(cg.level_scale)
        seen["step3"] += out.counters["step3"]
        seen["step4"] += out.tags.count("Step4")
        return out

    real = pipeline.cluster_level
    monkeypatch.setattr(pipeline, "cluster_level", lambda cg, eps, strict=False: record(real(cg, eps, strict), cg))
    for n, m, seed in ((300, 1200, 1), (600, 2400, 2), (1000, 4000, 3)):
        pipeline.light_spanner_general(random_connected_graph(n, m, seed), pipeline.PipelineConfig())
    for seed in range(6):
        cg = _random_cluster_graph(seed)
        record(cluster_level(cg, EPS, strict=True), cg)
    assert seen["step3"] and seen["step4"]  # levels where step 3 moves nodes and step 4 forms parts
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == CLUSTERING_PIN


def test_walks_reach_each_node_a_bounded_number_of_times(monkeypatch):
    # component walks (scan) plus farthest and ball walks (sweep) per
    # clustered node; walking every forest anew in steps 2-5 took 13.0
    import lightspan.pipeline as pipeline
    from lightspan.generate import random_connected_graph

    totals = {"walked": 0, "nodes": 0}
    real = pipeline.cluster_level

    def count(cg, eps, strict=False):
        out = real(cg, eps, strict)
        totals["walked"] += out.counters["scan"] + out.counters["sweep"]
        totals["nodes"] += cg.n_nodes
        return out

    monkeypatch.setattr(pipeline, "cluster_level", count)
    pipeline.light_spanner_general(random_connected_graph(2500, 10000, 0), pipeline.PipelineConfig())
    assert totals["walked"] < 10 * totals["nodes"]
