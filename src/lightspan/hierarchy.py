"""Cluster hierarchy: level-1 construction, potentials, cluster graphs, contraction.

Levels are partitions of the subdivided MST vertex set.  Every cluster keeps
a potential, an overestimate of its in-spanner diameter that only ever
shrinks in aggregate; the per-level drop pays for the spanner edges added at
that level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .graphs import SubdividedMst, WeightedGraph
from .unionfind import UnionFind

if TYPE_CHECKING:  # avoids a cycle: clustering builds on this module
    from .clustering import ClusteringOutcome

# cluster potential stays within POTENTIAL_RATIO * (previous level scale)
POTENTIAL_RATIO = 31


class UnsupportedShape(ValueError):
    """augmented_diameter got a subgraph with two or more independent cycles."""


@dataclass
class NodeWeightedSubgraph:
    """Small subgraph with weights on both nodes and edges."""

    node_weights: dict[int, float]
    edges: list[tuple[int, int, float]]


def _tree_adm(node_weights: dict[int, float], adj: dict[int, list[tuple[int, float]]]) -> float:
    """Exact augmented diameter of a node/edge-weighted tree.

    Single post-order pass keeping the two best downward descent values per
    node; a plain two-sweep diameter search is not exact once nodes carry
    weight.
    """
    nodes = list(node_weights)
    if not nodes:
        return 0.0
    root = nodes[0]
    order: list[int] = []
    parent: dict[int, int] = {root: root}
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u, _ in adj.get(v, ()):
            if u not in parent:
                parent[u] = v
                stack.append(u)
    if len(order) != len(nodes):
        raise ValueError("subgraph is not connected")
    down: dict[int, float] = {}
    best = 0.0
    for v in reversed(order):
        top1 = 0.0
        top2 = 0.0
        for u, w in adj.get(v, ()):
            if u == v or parent.get(u) != v or u == root:
                continue
            c = w + down[u]
            if c > top1:
                top1, top2 = c, top1
            elif c > top2:
                top2 = c
        down[v] = node_weights[v] + top1
        through = node_weights[v] + top1 + top2
        if through > best:
            best = through
    return best


def augmented_diameter(x: NodeWeightedSubgraph) -> float:
    """Maximum pairwise augmented distance (edge plus node weights on the path).

    Exact for trees.  A tree plus one extra edge is also exact: a simple path
    avoids at least one cycle edge, and deleting any cycle edge only removes
    paths, so the answer is the maximum tree diameter over single cycle-edge
    deletions.  Two or more independent cycles raise UnsupportedShape.
    """
    n = len(x.node_weights)
    if n == 0:
        return 0.0
    m = len(x.edges)
    if m > n:
        raise UnsupportedShape(f"subgraph has {m} edges on {n} nodes")
    adj: dict[int, list[tuple[int, float]]] = {v: [] for v in x.node_weights}
    for a, b, w in x.edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    if m == n - 1:
        return _tree_adm(x.node_weights, adj)
    cycle = _find_cycle(x.node_weights, x.edges)
    best = None
    for skip in cycle:
        a, b, w = x.edges[skip]
        adj2: dict[int, list[tuple[int, float]]] = {v: [] for v in x.node_weights}
        for i, (p, q, wt) in enumerate(x.edges):
            if i != skip:
                adj2[p].append((q, wt))
                adj2[q].append((p, wt))
        val = _tree_adm(x.node_weights, adj2)
        if best is None or val > best:
            best = val
    assert best is not None
    return best


def _find_cycle(node_weights: dict[int, float], edges: list[tuple[int, int, float]]) -> list[int]:
    """Edge ids of the unique cycle in a connected unicyclic subgraph."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in node_weights}
    for i, (a, b, _) in enumerate(edges):
        adj[a].append((b, i))
        adj[b].append((a, i))
    start = next(iter(node_weights))
    parent_edge: dict[int, int] = {start: -1}
    parent: dict[int, int] = {start: start}
    stack = [start]
    back = None
    while stack and back is None:
        v = stack.pop()
        for u, eid in adj[v]:
            if eid == parent_edge.get(v):
                continue
            if u in parent:
                back = (v, u, eid)
                break
            parent[u] = v
            parent_edge[u] = eid
            stack.append(u)
    if back is None:
        raise ValueError("expected a cycle in a unicyclic subgraph")
    v, u, eid = back
    # walk both endpoints of the back edge up to their meeting point
    path_v = {v: None}
    cur = v
    while parent[cur] != cur:
        path_v[parent[cur]] = parent_edge[cur]
        cur = parent[cur]
    cycle = [eid]
    cur = u
    while cur not in path_v:
        cycle.append(parent_edge[cur])
        cur = parent[cur]
    meet = cur
    cur = v
    while cur != meet:
        cycle.append(parent_edge[cur])
        cur = parent[cur]
    return cycle


# ---------------------------------------------------------------------------
# cluster levels


@dataclass
class ClusterLevel:
    """Partition of the extended vertex set at one level of the hierarchy.

    A cluster's representative is its least original vertex, or its least
    vertex when all are virtual, so it is original exactly when it is below
    the original vertex count.
    """

    prev_scale: float
    members: list[list[int]]
    potentials: list[float]
    representatives: list[int]
    # contracted tree over cluster ids: (cu, cv, weight, subdivided tree edge id)
    tree_edges: list[tuple[int, int, float, int]]
    # class-edge scale this level serves; the driver fills it in
    scale: float = 0.0
    # clusters exempt from the lower potential bound (terminal base cases)
    collapse: list[bool] = field(default_factory=list)

    @property
    def cluster_count(self) -> int:
        return len(self.members)


def _representatives(clusters: list[list[int]], n_original: int) -> list[int]:
    """Least original member per cluster, else least member."""
    reps = []
    for ms in clusters:
        orig = [v for v in ms if v < n_original]
        reps.append(min(orig) if orig else min(ms))
    return reps


def _induced_tree_diameter(members: list[int], adj, member_set: set[int]) -> float:
    """Edge-weight diameter of the induced (connected) subtree."""
    if len(members) == 1:
        return 0.0

    def far(src: int) -> tuple[int, float]:
        dist = {src: 0.0}
        stack = [src]
        best_v, best_d = src, 0.0
        while stack:
            v = stack.pop()
            dv = dist[v]
            for u, w, _ in adj[v]:
                if u in member_set and u not in dist:
                    dist[u] = dv + w
                    if dist[u] > best_d:
                        best_v, best_d = u, dist[u]
                    stack.append(u)
        return best_v, best_d

    a, _ = far(members[0])
    _, d = far(a)
    return d


def build_level1(sub: SubdividedMst, level0_scale: float, uf: UnionFind | None = None) -> ClusterLevel:
    """First partition of the subdivided MST into low-diameter subtrees.

    Bottom-up carve: walking the tree in post order, a subtree is cut as soon
    as its downward radius reaches level0_scale, so every carved cluster has
    radius in [level0_scale, level0_scale + w_bar).  The piece left around
    the root (radius below level0_scale) joins an adjacent carved cluster; if
    nothing was carved the whole tree is a single cluster.
    """
    if level0_scale < sub.w_bar:
        raise ValueError(f"level-0 scale {level0_scale} below w_bar {sub.w_bar}")
    n = sub.extended_vertex_count
    adj = sub.tree_adjacency()
    root = 0
    parent = [-1] * n
    parent[root] = root
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for u, _, _ in adj[v]:
            if parent[u] == -1:
                parent[u] = v
                order.append(u)
                stack.append(u)
    if len(order) != n:
        raise ValueError("subdivided MST is not connected")

    cluster_of = [-1] * n
    pending_height = [0.0] * n
    clusters: list[list[int]] = []
    for v in reversed(order):
        h = 0.0
        for u, w, _ in adj[v]:
            if parent[u] == v and cluster_of[u] == -1:
                c = pending_height[u] + w
                if c > h:
                    h = c
        pending_height[v] = h
        if h >= level0_scale:
            cid = len(clusters)
            group = [v]
            cluster_of[v] = cid
            dfs = [v]
            while dfs:
                y = dfs.pop()
                for u, _, _ in adj[y]:
                    if parent[u] == y and cluster_of[u] == -1:
                        cluster_of[u] = cid
                        group.append(u)
                        dfs.append(u)
            clusters.append(group)

    leftover = [v for v in order if cluster_of[v] == -1]
    if leftover:
        if not clusters:
            clusters.append(list(order))
            for v in order:
                cluster_of[v] = 0
        else:
            # attach the root piece to the adjacent carved cluster of least id
            target = None
            for v in leftover:
                for u, _, _ in adj[v]:
                    c = cluster_of[u]
                    if c != -1 and (target is None or c < target):
                        target = c
            assert target is not None
            for v in leftover:
                cluster_of[v] = target
                clusters[target].append(v)

    member_sets = [set(ms) for ms in clusters]
    potentials = [
        _induced_tree_diameter(ms, adj, mset) for ms, mset in zip(clusters, member_sets)
    ]
    reps = _representatives(clusters, sub.n_original)

    if uf is not None:
        for cid, ms in enumerate(clusters):
            orig = [v for v in ms if v < sub.n_original]
            virt = [v for v in ms if v >= sub.n_original]
            if orig:
                first = orig[0]
                for v in orig[1:]:
                    uf.union(first, v)
                for x in virt:
                    uf.set_pointer(x, first)
            else:
                uf.make_virtual_cluster(virt)

    tree_edges: list[tuple[int, int, float, int]] = []
    for eid, (a, b, w) in enumerate(sub.tree_edges):
        ca, cb = cluster_of[a], cluster_of[b]
        if ca != cb:
            tree_edges.append((ca, cb, w, eid))

    return ClusterLevel(
        prev_scale=level0_scale,
        members=clusters,
        potentials=potentials,
        representatives=reps,
        tree_edges=tree_edges,
        collapse=[False] * len(clusters),
    )


# ---------------------------------------------------------------------------
# node/edge-weighted cluster graph with removable-edge pruning


@dataclass
class ClusterGraph:
    """Simple graph on cluster nodes: contracted tree edges plus class edges."""

    node_weights: list[float]
    tree_edges: list[tuple[int, int, float, int]]
    # (cu, cv, weight, source graph edge id), deduplicated, no removable edges
    class_edges: list[tuple[int, int, float, int]]
    level_scale: float
    prev_scale: float
    w_bar: float
    node_source: list[int]
    collapse: list[bool] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.node_weights)


class _ChainIndex:
    """Maximal degree-<=2 chains of a tree, with augmented prefix sums.

    A class edge is shadowed by its tree path only when every interior node
    of that path has tree degree at most 2, i.e. both ends sit on one chain
    (degree-3+ nodes may bound a chain but never sit inside one).  Prefix
    sums give the augmented path weight, edges plus all node weights
    including both endpoints, in O(1) per query.
    """

    def __init__(self, n: int, node_weights: list[float], tree_edges: list[tuple[int, int, float, int]]):
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for a, b, w, _ in tree_edges:
            adj[a].append((b, w))
            adj[b].append((a, w))
        self._node_weights = node_weights
        deg = [len(a) for a in adj]
        self.deg = deg
        self.chain_of = [-1] * n
        self.chain_nodes: list[list[int]] = []
        self.pos_in_chain: list[dict[int, int]] = []
        self.prefix: list[list[float]] = []
        self.pair_chain: dict[tuple[int, int], int] = {}

        def edge_w(low_deg_node: int, other: int) -> float:
            for u, w in adj[low_deg_node]:
                if u == other:
                    return w
            raise KeyError((low_deg_node, other))

        def new_chain(seq: list[int]) -> None:
            cid = len(self.prefix)
            index: dict[int, int] = {}
            pref: list[float] = []
            run = 0.0
            for j, v in enumerate(seq):
                if j > 0:
                    a, b = seq[j - 1], v
                    run += edge_w(a if deg[a] <= 2 else b, b if deg[a] <= 2 else a)
                run += node_weights[v]
                pref.append(run)
                index[v] = j
                if deg[v] <= 2:
                    self.chain_of[v] = cid
            self.chain_nodes.append(seq)
            self.pos_in_chain.append(index)
            self.prefix.append(pref)
            if deg[seq[0]] >= 3 and deg[seq[-1]] >= 3:
                key = (min(seq[0], seq[-1]), max(seq[0], seq[-1]))
                self.pair_chain[key] = cid

        for v in range(n):
            if deg[v] >= 3 or self.chain_of[v] != -1:
                continue
            low_neighbors = [u for u, _ in adj[v] if deg[u] <= 2]
            if len(low_neighbors) > 1:
                continue  # interior of a run, reached from its endpoint
            run = [v]
            prev = -1
            cur = v
            while True:
                nxt = None
                for u, _ in adj[cur]:
                    if u != prev and deg[u] <= 2:
                        nxt = u
                        break
                if nxt is None:
                    break
                run.append(nxt)
                prev, cur = cur, nxt
            left = [u for u, _ in adj[run[0]] if deg[u] >= 3]
            right = [u for u, _ in adj[run[-1]] if deg[u] >= 3 and (len(run) > 1 or u not in left[:1])]
            seq = ([left[0]] if left else []) + run + ([right[0]] if right else [])
            new_chain(seq)
        for a, b, w, _ in tree_edges:
            if deg[a] >= 3 and deg[b] >= 3:
                cid = len(self.prefix)
                self.chain_nodes.append([a, b])
                self.pos_in_chain.append({a: 0, b: 1})
                self.prefix.append([node_weights[a], node_weights[a] + w + node_weights[b]])
                self.pair_chain[(min(a, b), max(a, b))] = cid

    def path_weight_if_eligible(self, a: int, b: int) -> float | None:
        """Augmented tree-path weight, or None when an interior node branches."""
        ca, cb = self.chain_of[a], self.chain_of[b]
        if ca != -1 and (ca == cb or (cb == -1 and b in self.pos_in_chain[ca])):
            cid = ca
        elif cb != -1 and ca == -1 and a in self.pos_in_chain[cb]:
            cid = cb
        elif ca == -1 and cb == -1:
            cid = self.pair_chain.get((min(a, b), max(a, b)), -1)
            if cid == -1:
                return None
        else:
            return None
        pa = self.pos_in_chain[cid][a]
        pb = self.pos_in_chain[cid][b]
        if pa > pb:
            pa, pb = pb, pa
        pref = self.prefix[cid]
        return (pref[pb] - pref[pa]) + self._node_weights[self.chain_nodes[cid][pa]]


def build_cluster_graph(
    level: ClusterLevel,
    class_edge_ids: list[int],
    g: WeightedGraph,
    uf: UnionFind,
    t: float,
    eps: float,
    *,
    level_scale: float,
    w_bar: float,
) -> ClusterGraph:
    """Lift one weight class onto the cluster nodes of the current level.

    Endpoints map through the union-find; self-loops are dropped, parallel
    edges keep the minimum weight (ties by source edge id), and any class
    edge shadowed by a degree-<=2 tree path of augmented weight at most
    t(1 + 6*g*eps) times its own weight is deleted outright.
    """
    root_to_cluster = {uf.find(r): cid for cid, r in enumerate(level.representatives)}
    best: dict[tuple[int, int], tuple[float, int, int, int]] = {}
    for eid in class_edge_ids:
        u, v, w = g.edges[eid]
        cu = root_to_cluster[uf.find(u)]
        cv = root_to_cluster[uf.find(v)]
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        cand = (w, eid, cu, cv)
        prev = best.get(key)
        if prev is None or cand[:2] < prev[:2]:
            best[key] = cand
    deduped = sorted(best.values(), key=lambda c: c[1])

    chains = _ChainIndex(level.cluster_count, level.potentials, level.tree_edges)
    slack = t * (1.0 + 6.0 * POTENTIAL_RATIO * eps)
    kept: list[tuple[int, int, float, int]] = []
    for w, eid, cu, cv in deduped:
        shadow = chains.path_weight_if_eligible(cu, cv)
        if shadow is not None and shadow <= slack * w:
            continue
        kept.append((cu, cv, w, eid))

    return ClusterGraph(
        node_weights=list(level.potentials),
        tree_edges=list(level.tree_edges),
        class_edges=kept,
        level_scale=level_scale,
        prev_scale=level.prev_scale,
        w_bar=w_bar,
        node_source=list(level.representatives),
        collapse=list(level.collapse),
    )


def contract_level(level: ClusterLevel, subgraphs: "ClusteringOutcome", uf: UnionFind) -> ClusterLevel:
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

    reps = level.representatives
    for grp in groups:
        for c in grp[1:]:
            uf.union(reps[grp[0]], reps[c])

    best: dict[tuple[int, int], tuple[float, int, int, int]] = {}
    for cu, cv, w, src in level.tree_edges:
        nu, nv = new_of[cu], new_of[cv]
        if nu == nv:
            continue
        key = (nu, nv) if nu < nv else (nv, nu)
        cand = (w, src, nu, nv)
        prev = best.get(key)
        if prev is None or cand[:2] < prev[:2]:
            best[key] = cand

    forest = UnionFind(len(groups), len(groups))
    tree_edges: list[tuple[int, int, float, int]] = []
    for w, src, nu, nv in sorted(best.values(), key=lambda c: c[:2]):
        if forest.union(nu, nv):
            tree_edges.append((nu, nv, w, src))
    if len(tree_edges) != len(groups) - 1:
        raise ValueError("contracted tree does not span the new level")

    return ClusterLevel(
        prev_scale=subgraphs.level_scale,
        members=members,
        potentials=list(subgraphs.adm),
        representatives=_representatives(members, uf.n_original),
        tree_edges=tree_edges,
        collapse=list(subgraphs.collapse),
    )


# ---------------------------------------------------------------------------
# potential bookkeeping across levels


@dataclass
class PotentialLedger:
    """Per-level potential totals and the local drops that pay for new edges."""

    phi_totals: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    local_changes: list[list[float]] = field(default_factory=list)
    corrected_changes: list[list[float]] = field(default_factory=list)

    def record_level(self, level: ClusterLevel) -> None:
        total = sum(level.potentials)
        self.phi_totals.append(total)
        if len(self.phi_totals) >= 2:
            self.deltas.append(self.phi_totals[-2] - self.phi_totals[-1])

    def record_transition(self, local: list[float], corrected: list[float]) -> None:
        self.local_changes.append(list(local))
        self.corrected_changes.append(list(corrected))
