"""Cluster hierarchy: level-1 construction, potentials, cluster graphs, contraction.

Levels are partitions of the subdivided MST vertex set.  Every cluster keeps
a potential, an overestimate of its in-spanner diameter that only ever
shrinks in aggregate; the per-level drop pays for the spanner edges added at
that level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graphs import SubdividedMst, WeightedGraph, indexed_adjacency, lightest_per_pair
from .unionfind import UnionFind

if TYPE_CHECKING:  # avoids a cycle: clustering builds on this module
    from .clustering import ClusteringOutcome

# cluster potential stays within POTENTIAL_RATIO * (previous level scale)
POTENTIAL_RATIO = 31


class InvariantViolation(ValueError):
    """An internal invariant of the construction failed.

    Raised in place of `assert` so the checks also run under `python -O`.
    """


class UnsupportedShape(ValueError):
    """augmented_diameter got a subgraph with two or more independent cycles."""


def _tree_adm(node_weights: dict[int, float], edges: list[tuple[int, int, float]]) -> float:
    """Exact augmented diameter of a node/edge-weighted tree.

    Single post-order pass from the first node keeping the two best downward
    descent values per node; a plain two-sweep diameter search is not exact
    once nodes carry weight.
    """
    adj: dict[int, list[tuple[int, float]]] = {v: [] for v in node_weights}
    for a, b, w in edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    root = next(iter(node_weights))
    # node -> (parent, weight of the edge to it); order lists parents first
    up: dict[int, tuple[int, float]] = {root: (root, 0.0)}
    order = [root]
    for v in order:
        for u, w in adj[v]:
            if u not in up:
                up[u] = (v, w)
                order.append(u)
    if len(order) != len(node_weights):
        raise ValueError("subgraph is not connected")
    top = {v: [0.0, 0.0] for v in order}
    best = 0.0
    for v in reversed(order):
        top1, top2 = top[v]
        down = node_weights[v] + top1
        if down + top2 > best:
            best = down + top2
        if v != root:
            p, w = up[v]
            c = w + down
            tp = top[p]
            if c > tp[0]:
                tp[0], tp[1] = c, tp[0]
            elif c > tp[1]:
                tp[1] = c
    return best


def augmented_diameter(node_weights: dict[int, float], edges: list[tuple[int, int, float]]) -> float:
    """Maximum pairwise augmented distance (edge plus node weights on the path).

    Exact for trees.  A tree plus one extra edge is also exact: a simple path
    avoids at least one cycle edge, and deleting any cycle edge only removes
    paths, so the answer is the maximum tree diameter over single cycle-edge
    deletions.  The cycle is what remains after peeling degree-1 nodes until
    none are left.  Two or more independent cycles raise UnsupportedShape.
    """
    n = len(node_weights)
    m = len(edges)
    if n == 0:
        return 0.0
    if m > n:
        raise UnsupportedShape(f"subgraph has {m} edges on {n} nodes")
    if m < n:
        return _tree_adm(node_weights, edges)
    adj: dict[int, list[int]] = {v: [] for v in node_weights}
    for a, b, _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    deg = {v: len(us) for v, us in adj.items()}
    leaves = [v for v, d in deg.items() if d == 1]
    while leaves:
        for u in adj[leaves.pop()]:
            deg[u] -= 1
            if deg[u] == 1:
                leaves.append(u)
    return max(
        _tree_adm(node_weights, edges[:i] + edges[i + 1 :])
        for i, (a, b, _) in enumerate(edges)
        if deg[a] >= 2 and deg[b] >= 2
    )


# ---------------------------------------------------------------------------
# cluster levels


@dataclass
class ClusterLevel:
    """Partition of the extended vertex set at one level of the hierarchy."""

    members: list[list[int]]
    potentials: list[float]
    # contracted tree over cluster ids: (cu, cv, weight, subdivided tree edge id)
    tree_edges: list[tuple[int, int, float, int]]
    # original vertex -> id of the cluster holding it
    cluster_of: list[int]

    @property
    def cluster_count(self) -> int:
        return len(self.members)


def _farthest_member(
    src: int, cid: int, adj, cluster_of: list[int], dist: list[float], came: list[int]
) -> tuple[int, float]:
    """Farthest member of cluster cid from src by edge weight, the first
    reached on ties, walking the cluster's subtree depth first in adjacency
    order.  dist and came are scratch arrays: a tree walk only has to skip
    the node it came from."""
    dist[src] = 0.0
    came[src] = -1
    best_v, best_d = src, 0.0
    stack = [src]
    while stack:
        y = stack.pop()
        cy, dy = came[y], dist[y]
        for u, w, _ in adj[y]:
            if u != cy and cluster_of[u] == cid:
                d = dist[u] = dy + w
                came[u] = y
                if d > best_d:
                    best_v, best_d = u, d
                stack.append(u)
    return best_v, best_d


def build_level1(sub: SubdividedMst, level0_scale: float) -> ClusterLevel:
    """First partition of the subdivided MST into low-diameter subtrees.

    Bottom-up carve: walking the tree in post order, a subtree is cut as soon
    as its downward radius reaches level0_scale, so every carved cluster has
    radius in [level0_scale, level0_scale + w_bar).  The piece left around
    the root (radius below level0_scale) joins an adjacent carved cluster; if
    nothing was carved the whole tree is a single cluster.  The rooted tree
    is shared by every weight class and only read here.

    A cluster's potential is the edge-weight diameter of its subtree, found
    by two farthest-node sweeps: from its first member, then from the far
    end of the first.  The carve's own walk from the cluster's top pushes
    nodes in the first sweep's order, so it finds the same far end (ties to
    the first reached); the second sweep's maximum does not depend on order.
    Only a cluster that absorbs the root piece, or the single uncarved
    cluster, takes both sweeps after the carve.  Each cluster but the
    root's meets the rest of the tree through its top's parent edge, taken
    at the carve, so those edges, in id order, are the contracted tree.
    """
    if level0_scale < sub.w_bar:
        raise ValueError(f"level-0 scale {level0_scale} below w_bar {sub.w_bar}")
    n = sub.extended_vertex_count
    adj, parent, order, parent_edge, sub_edges = (
        sub.adj, sub.parent, sub.order, sub.parent_edge, sub.tree_edges
    )

    cluster_of = [-1] * n
    # pending_height[v]: downward radius of v's uncarved subtree, collected
    # from its children as they are passed
    pending_height = [0.0] * n
    dist = [0.0] * n  # per-sweep distances from the sweep's source
    came = [0] * n  # per-sweep predecessor, so a tree walk never turns back
    clusters: list[list[int]] = []
    far_ends: list[int] = []
    cut: list[int] = []  # parent edges of carved tops: the contracted tree
    for v in reversed(order):
        h = pending_height[v]
        if h < level0_scale:
            if v:  # the root has no parent edge
                c = h + sub_edges[parent_edge[v]][2]
                p = parent[v]
                if c > pending_height[p]:
                    pending_height[p] = c
            continue
        cid = len(clusters)
        group = [v]
        cluster_of[v] = cid
        dist[v] = 0.0
        far, far_d = v, 0.0
        dfs = [v]
        while dfs:
            y = dfs.pop()
            py, dy = parent[y], dist[y]
            for u, w, _ in adj[y]:
                if u != py and cluster_of[u] == -1:
                    cluster_of[u] = cid
                    group.append(u)
                    d = dist[u] = dy + w
                    if d > far_d:
                        far, far_d = u, d
                    dfs.append(u)
        clusters.append(group)
        far_ends.append(far)
        if v:
            cut.append(parent_edge[v])

    leftover = [v for v in order if cluster_of[v] == -1]
    if leftover:
        if not clusters:
            clusters.append(list(order))
            for v in order:
                cluster_of[v] = 0
            far_ends.append(-1)  # both sweeps still owed
        else:
            # attach the root piece to the adjacent carved cluster of least id
            target = None
            for v in leftover:
                for u, _, _ in adj[v]:
                    c = cluster_of[u]
                    if c != -1 and (target is None or c < target):
                        target = c
            if target is None:
                raise InvariantViolation("carved root piece has no carved neighbour")
            for v in leftover:
                cluster_of[v] = target
                clusters[target].append(v)
            # grown past its carve, the cluster owes its first sweep again,
            # and its top's parent edge, into the root piece, is now inside
            far_ends[target] = -1
            cut.remove(parent_edge[clusters[target][0]])

    potentials = []
    for cid, a in enumerate(far_ends):
        if a == -1:
            a = _farthest_member(clusters[cid][0], cid, adj, cluster_of, dist, came)[0]
        potentials.append(_farthest_member(a, cid, adj, cluster_of, dist, came)[1])
    cut.sort()
    tree_edges = [
        (cluster_of[a], cluster_of[b], w, eid) for eid in cut for a, b, w in (sub_edges[eid],)
    ]

    return ClusterLevel(
        members=clusters,
        potentials=potentials,
        tree_edges=tree_edges,
        cluster_of=cluster_of[: sub.n_original],
    )


# ---------------------------------------------------------------------------
# node/edge-weighted cluster graph with removable-edge pruning


@dataclass
class ClusterGraph:
    """Simple graph on cluster nodes: contracted tree edges plus class edges."""

    node_weights: list[float]
    tree_edges: list[tuple[int, int, float, int]]
    # indexed_adjacency of tree_edges, built once per level
    tree_adj: list[list[tuple[int, float, int]]]
    # (cu, cv, weight, source graph edge id), deduplicated, no removable edges
    class_edges: list[tuple[int, int, float, int]]
    level_scale: float
    prev_scale: float
    w_bar: float
    members: list[list[int]]  # the level's lists, not a copy

    @property
    def n_nodes(self) -> int:
        return len(self.node_weights)


class _ChainIndex:
    """Chains of a tree with augmented prefix sums, for the shadow test.

    A chain is a maximal tree path whose interior nodes have degree 2, so
    every tree edge lies on exactly one, and a class edge is shadowed only
    when both its ends lie on one chain.  A chain is walked from the least-id
    end of its run of degree-<=2 nodes, with that end's first degree->=3
    neighbour (adjacency order) in front; a bare edge between two degree->=3
    nodes is walked as stored.  Prefix sums add edge, then node weight, so a
    query returns the augmented path weight (edges plus all nodes) in O(1).
    """

    def __init__(self, node_weights: list[float], tree_edges: list[tuple[int, int, float, int]], tree_adj):
        n = len(tree_adj)
        low = [len(us) <= 2 for us in tree_adj]
        self._node_weights = node_weights
        self.chain_of = chain_of = [None] * n  # (positions, prefix sums) of each degree-<=2 node
        self.by_ends = {}  # the same for each chain between two degree->=3 nodes, by (min, max) ends

        def add(walk: list[tuple[float, int]]) -> None:  # (weight of the edge in, node) steps
            pref: list[float] = []
            chain = ({v: j for j, (_, v) in enumerate(walk)}, pref)
            run = 0.0
            for w, v in walk:
                run += w
                run += node_weights[v]
                pref.append(run)
                if low[v]:
                    chain_of[v] = chain
            a, b = walk[0][1], walk[-1][1]
            if not low[a] and not low[b]:
                self.by_ends[min(a, b), max(a, b)] = chain

        for v in range(n):
            if not low[v] or chain_of[v] is not None or len([u for u, _, _ in tree_adj[v] if low[u]]) > 1:
                continue  # branching, already walked, or inside a run
            walk, prev, cur = [(0.0, v)], v, v  # prev = v excludes no neighbour
            for u, w, _ in tree_adj[v]:
                if not low[u]:
                    walk, prev = [(0.0, u), (w, v)], u
                    break
            while low[cur]:
                for u, w, _ in tree_adj[cur]:
                    if u != prev:
                        break
                else:
                    break
                walk.append((w, u))
                prev, cur = cur, u
            add(walk)
        for a, b, w, _ in tree_edges:
            if not low[a] and not low[b]:
                add([(0.0, a), (w, b)])

    def path_weight_if_eligible(self, a: int, b: int) -> float | None:
        """Augmented tree-path weight, or None when an interior node branches."""
        chain = self.chain_of[a] or self.chain_of[b] or self.by_ends.get((min(a, b), max(a, b)))
        if chain is None:
            return None
        pos, pref = chain
        pa, pb = pos.get(a), pos.get(b)
        if pa is None or pb is None:
            return None
        if pa > pb:
            a, pa, pb = b, pb, pa
        return (pref[pb] - pref[pa]) + self._node_weights[a]


def build_cluster_graph(
    level: ClusterLevel,
    class_edge_ids: list[int],
    g: WeightedGraph,
    t: float,
    eps: float,
    *,
    level_scale: float,
    prev_scale: float,
    w_bar: float,
) -> ClusterGraph:
    """Lift one weight class onto the cluster nodes of the current level.

    Endpoints map through the level's cluster_of (class edges join original
    vertices); self-loops are dropped, parallel edges keep the minimum
    weight (ties by source edge id), and any class edge shadowed by a
    degree-<=2 tree path of augmented weight at most t(1 + 6*g*eps) times
    its own weight is deleted outright.
    """
    cluster_of = level.cluster_of
    edges = g.edges
    lifted = (
        (cluster_of[edges[eid][0]], cluster_of[edges[eid][1]], edges[eid][2], eid)
        for eid in class_edge_ids
    )
    deduped = sorted(lightest_per_pair(lifted), key=lambda c: c[1])

    tree_adj = indexed_adjacency(level.cluster_count, level.tree_edges)
    chains = _ChainIndex(level.potentials, level.tree_edges, tree_adj)
    slack = t * (1.0 + 6.0 * POTENTIAL_RATIO * eps)
    kept: list[tuple[int, int, float, int]] = []
    for w, eid, cu, cv in deduped:
        shadow = chains.path_weight_if_eligible(cu, cv)
        if shadow is not None and shadow <= slack * w:
            continue
        kept.append((cu, cv, w, eid))

    return ClusterGraph(
        node_weights=level.potentials,
        tree_edges=level.tree_edges,
        tree_adj=tree_adj,
        class_edges=kept,
        level_scale=level_scale,
        prev_scale=prev_scale,
        w_bar=w_bar,
        members=level.members,
    )


def contract_level(level: ClusterLevel, subgraphs: "ClusteringOutcome") -> ClusterLevel:
    """Merge each chosen subgraph into one next-level cluster.

    New potentials are the subgraphs' augmented diameters.  The next
    contracted tree is built from the surviving tree edges: one candidate
    per node pair (minimum weight, ties by source id), then a deterministic
    Kruskal sweep, since subgraphs glued by class edges can close cycles.
    """
    groups = subgraphs.groups
    new_of = [-1] * level.cluster_count
    for xid, grp in enumerate(groups):
        for c in grp:
            if new_of[c] != -1:
                raise ValueError(f"cluster {c} claimed by two subgraphs")
            new_of[c] = xid
    missing = [c for c, x in enumerate(new_of) if x == -1]
    if missing:
        raise ValueError(f"clusters not covered by any subgraph: {missing[:5]}")

    members: list[list[int]] = [[] for _ in groups]
    for cid, ms in enumerate(level.members):
        members[new_of[cid]].extend(ms)

    lifted = ((new_of[cu], new_of[cv], w, src) for cu, cv, w, src in level.tree_edges)
    forest = UnionFind(len(groups))
    tree_edges: list[tuple[int, int, float, int]] = []
    for w, src, nu, nv in sorted(lightest_per_pair(lifted), key=lambda c: c[:2]):
        if forest.union(nu, nv):
            tree_edges.append((nu, nv, w, src))
    if len(tree_edges) != len(groups) - 1:
        raise ValueError("contracted tree does not span the new level")

    return ClusterLevel(
        members=members,
        potentials=list(subgraphs.adm),
        tree_edges=tree_edges,
        cluster_of=[new_of[c] for c in level.cluster_of],
    )
