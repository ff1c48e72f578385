"""Five-step grouping of cluster-graph nodes into next-level subgraphs.

Step 1 groups nodes with many class edges and their neighborhoods.  Step 2
carves balls around branching nodes of the contracted tree so that long
leftover trees become paths.  Step 3 re-homes tree-branching nodes stranded
on those paths.  Step 4 pairs up path intervals joined by a class edge
between deep (blue) nodes.  Step 5 sweeps up everything else.  The outcome
is a partition of the nodes whose every part has augmented diameter within
a constant factor of the level scale, plus the per-part potential drop that
pays for the edges kept at this level.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from operator import itemgetter

from .graphs import indexed_adjacency
from .hierarchy import POTENTIAL_RATIO, ClusterGraph, InvariantViolation, augmented_diameter

# below this, every per-step constant from the analysis holds literally
STRICT_EPS = 1.0 / (8 * (POTENTIAL_RATIO + 1))


@dataclass
class Subgraph:
    """One part of the outcome: nodes plus the tree/class edges it owns."""

    nodes: list[int]
    tree_eids: list[int]
    class_eids: list[int]
    tag: str
    collapse: bool = False


@dataclass
class ClusteringOutcome:
    groups: list[list[int]]
    class_eids: list[list[int]]
    tags: list[str]
    adm: list[float]
    local_change: list[float]
    corrected_change: list[float]
    node_kind: list[str]
    degenerate: bool
    collapse: list[bool]
    counters: dict[str, int] = field(default_factory=dict)


class _Tree:
    """One ungrouped component, as walked from its first node."""

    __slots__ = ("nodes", "total", "far", "diameter")

    def __init__(self, nodes: list[int], total: float, far: int):
        self.nodes = nodes  # walk order; nodes[0] is where the walk started
        self.total = total  # total augmented weight
        self.far = far  # deepest node from nodes[0]
        self.diameter = None  # diameter_path, once asked for


class _State:
    def __init__(self, cg: ClusterGraph, eps: float, strict: bool):
        self.cg = cg
        self.eps = eps
        self.strict = strict
        self.L = cg.level_scale
        self.g = POTENTIAL_RATIO
        n = cg.n_nodes
        self.n = n
        self.w = cg.node_weights
        self.tree_adj = cg.tree_adj
        self.owner = [-1] * n
        self.parts: list[Subgraph] = []
        # per-walk scratch: a node was reached by the current walk when its
        # mark equals the walk's stamp; depth and up hold its distance and tree edge
        self.stamp = 0
        self.mark = [0] * n
        self.depth = [0.0] * n
        self.up = [-1] * n
        self._forest: list[_Tree] | None = None
        self.counters: dict[str, int] = {
            "scan": 0,  # nodes reached by forest and re-seed component walks
            "sweep": 0,  # nodes reached by diameter sweeps and ball walks
            "step3": 0,  # nodes step 3 re-homed
        }

    def new_part(self, tag: str) -> int:
        self.parts.append(Subgraph([], [], [], tag))
        return len(self.parts) - 1

    def assign(self, v: int, xid: int) -> None:
        if self.owner[v] != -1:
            raise InvariantViolation(f"node {v} grouped twice")
        self.owner[v] = xid
        self.parts[xid].nodes.append(v)

    def alive(self, v: int) -> bool:
        return self.owner[v] == -1

    def host(self, adj, nodes, tags=None) -> tuple[int, int]:
        """The part of the least grouped neighbour of `nodes` in `adj` (of a
        part tagged in `tags`, when given) and the first edge id to it."""
        best = None
        for u in nodes:
            for nb, _, eid in adj[u]:
                ow = self.owner[nb]
                if ow != -1 and (tags is None or self.parts[ow].tag in tags):
                    if best is None or nb < best[0]:
                        best = (nb, eid)
        if best is None:
            raise InvariantViolation("an ungrouped node has no grouped neighbour to join")
        return self.owner[best[0]], best[1]

    # ------------------------------------------------------------------
    # forest helpers over ungrouped nodes

    def component(
        self, seed: int, counter: str = "scan", cutoff: float = float("inf")
    ) -> tuple[list[int], float, int]:
        """Nodes of seed's ungrouped component in walk order, its total
        augmented weight, and its deepest node from seed (ties to the least
        id).  A node other than seed at augmented distance >= cutoff is
        reached but not walked past.  Each reached node's distance from seed
        is left in depth and its tree edge towards seed in up;
        counters[counter] counts the nodes."""
        tree_adj, owner, w, depth, mark, up = (
            self.tree_adj, self.owner, self.w, self.depth, self.mark, self.up
        )
        self.stamp += 1
        stamp = self.stamp
        mark[seed] = stamp
        nodes = [seed]
        total = best_d = depth[seed] = w[seed]
        best = seed
        stack = [seed]
        while stack:
            v = stack.pop()
            dv = depth[v]
            for u, wt, tid in tree_adj[v]:
                if owner[u] == -1 and mark[u] != stamp:
                    mark[u] = stamp
                    nodes.append(u)
                    wu = w[u]
                    total += wt + wu
                    d = depth[u] = dv + wt + wu
                    up[u] = tid
                    if d > best_d or (d == best_d and u < best):
                        best, best_d = u, d
                    if d < cutoff:
                        stack.append(u)
        self.counters[counter] += len(nodes)
        return nodes, total, best

    def forest(self) -> list[_Tree]:
        """Every ungrouped component, walked from its least node, in the order
        of least nodes.

        A component that lost no node since the previous call is the same
        component with the same walk, so it is kept as it was, diameter path
        included; only the survivors of changed components are walked again.
        """
        owner = self.owner
        if self._forest is None:
            kept: list[_Tree] = []
            loose = [v for v in range(self.n) if owner[v] == -1]
        else:
            kept, loose = [], []
            for tree in self._forest:
                if max(map(owner.__getitem__, tree.nodes)) == -1:
                    kept.append(tree)
                else:
                    loose += [v for v in tree.nodes if owner[v] == -1]
            loose.sort()
        before = self.stamp
        mark = self.mark
        fresh = [_Tree(*self.component(v)) for v in loose if mark[v] <= before]
        self._forest = sorted(kept + fresh, key=lambda t: t.nodes[0]) if kept else fresh
        return self._forest

    def long_path(self, tree: _Tree):
        """diameter_path of the tree when its Adm is >= 6L, else None."""
        if tree.total < 6 * self.L:  # Adm <= total
            return None
        found = self.tree_diameter(tree)
        return found if found[3] >= 6 * self.L else None

    def tree_diameter(self, tree: _Tree) -> tuple[list[int], list[float], list[int], float]:
        """diameter_path of the tree, computed once."""
        if tree.diameter is None:
            tree.diameter = self.diameter_path(tree.nodes, tree.far)
        return tree.diameter

    def take_window(self, xid: int, path: list[int], eids: list[int], lo: int, hi: int) -> None:
        """Group path[lo..hi] into part xid with the path edges between them."""
        for v in path[lo : hi + 1]:
            self.assign(v, xid)
        self.parts[xid].tree_eids.extend(eids[lo:hi])

    def diameter_path(
        self, nodes: list[int], far: int | None = None
    ) -> tuple[list[int], list[float], list[int], float]:
        """Augmented diameter path of a whole ungrouped component: node list,
        prefix sums, edge ids, Adm.

        The path runs from the deepest node a from the least node to the
        deepest node from a.  `far`, the deepest node from nodes[0] as
        component returns it, stands in for the first sweep when nodes[0] is
        the least node.
        """
        least = min(nodes)
        a = far if far is not None and nodes[0] == least else self.component(least, "sweep")[2]
        b = self.component(a, "sweep")[2]
        up, tree_edges = self.up, self.cg.tree_edges
        path = [b]
        eids: list[int] = []
        v = b
        while v != a:
            tid = up[v]
            x, y = tree_edges[tid][:2]
            v = x if y == v else y
            path.append(v)
            eids.append(tid)
        path.reverse()
        eids.reverse()
        # distances sum from a along the path: the prefix sums of the path
        depth = self.depth
        return path, [depth[v] for v in path], eids, depth[b]


# ---------------------------------------------------------------------------
# step 1: nodes with many class edges


def heavy_threshold(eps: float) -> float:
    """Class degree at which step 1 calls a node heavy."""
    return 2.0 * POTENTIAL_RATIO / eps


def heavy_nodes(class_edges, eps: float) -> list[int]:
    """Nodes whose class degree reaches heavy_threshold(eps), ascending."""
    degree = Counter(map(itemgetter(0), class_edges))
    degree.update(map(itemgetter(1), class_edges))
    thresh = heavy_threshold(eps)
    return sorted(v for v, d in degree.items() if d >= thresh)


def step1_high_nodes(state: _State) -> list[int]:
    """Group every heavily-connected node and its class neighborhood into stars."""
    # most levels have no heavy node: count class degrees, and build the
    # class adjacency only when a node reaches the threshold
    edges = state.cg.class_edges
    high = heavy_nodes(edges, state.eps)
    if not high:
        return high
    class_adj = indexed_adjacency(state.n, edges)
    blocked = [False] * state.n

    for center in high:
        closed = [center] + [u for u, _, _ in class_adj[center]]
        if any(blocked[v] for v in closed):
            continue
        xid = state.new_part("Step1")
        for v in closed:
            blocked[v] = True
            if state.owner[v] == -1:
                state.assign(v, xid)
        for u, _, cid in class_adj[center]:
            state.parts[xid].class_eids.append(cid)

    # leftover heavy nodes, then their neighbors, join the least grouped
    # class neighbor's part
    for v in high + [u for center in high for u, _, _ in class_adj[center]]:
        if state.owner[v] != -1:
            continue
        xid, cid = state.host(class_adj, (v,))
        state.assign(v, xid)
        state.parts[xid].class_eids.append(cid)

    if state.strict:
        for x in state.parts:
            if len(x.nodes) < heavy_threshold(state.eps):
                raise InvariantViolation("step-1 part below its size bound")
    return high


# ---------------------------------------------------------------------------
# step 2: carve balls around branching nodes of long trees


def _carve_ball(state: _State, phi: int) -> tuple[set[int], float]:
    """Nodes within augmented distance < L of phi plus the first node at >= L
    on each branch; returns the ball and the radius actually reached."""
    nodes, _, far = state.component(phi, "sweep", state.L)
    xid = state.new_part("Step2")
    state.parts[xid].tree_eids.extend(state.up[u] for u in nodes[1:])
    for v in sorted(nodes):
        state.assign(v, xid)
    return set(nodes), state.depth[far]


def step2_branching(state: _State) -> None:
    """Repeatedly carve a ball around a branching node of a currently-long tree.

    A task owns one component; the suffix of its diameter path doubles as a
    longness certificate so that the common case never recomputes diameters.
    When the certificate runs out the remaining region is re-seeded as a
    fresh task, whose first carve is justified by a freshly computed path.
    Low-degree path nodes that still hold an off-path subtree (their path
    neighbor died to a ball, or a tied diameter endpoint) are re-tasked too;
    retirement is reserved for nodes proven bare at sweep time.

    The first task of each component is that component's tree from
    state.forest(), walked once: the walk from its least node is also the
    first sweep of its diameter path, and the components the tasks never
    touch stay in the forest for step 3.  Re-seeded tasks walk from their
    seed.
    """
    L, owner, tree_adj = state.L, state.owner, state.tree_adj
    retired = [False] * state.n
    seeds: deque[int] = deque()

    def tasks():
        yield from state.forest()
        while seeds:
            seed = seeds.popleft()
            if owner[seed] == -1 and not retired[seed]:
                yield _Tree(*state.component(seed))

    for tree in tasks():
        found = state.long_path(tree)
        if found is None:
            for v in tree.nodes:
                retired[v] = True
            continue
        path, pre, _, _ = found

        pos = {v: j for j, v in enumerate(path)}
        seg_start = 0
        j = 0
        carved_any = False
        reseeded = False
        # nodes swept at low degree that still hold an off-path subtree
        # (possible once a ball killed a path neighbor, or at a tied
        # endpoint); they are re-tasked, never retired
        suspects: list[int] = []
        suspect_set: set[int] = set()
        while j < len(path):
            v = path[j]
            deg = 0
            off_path = False
            for u, _, _ in tree_adj[v]:
                if owner[u] == -1:
                    deg += 1
                    if u not in pos:
                        off_path = True
            endpoint = j == 0 or j == len(path) - 1
            # an endpoint with a side subtree is carve-worthy on the first
            # carve only: the intact path then guarantees radius >= L
            if deg < 3 and not (off_path and endpoint and not carved_any):
                if off_path and v not in suspect_set:
                    suspects.append(v)
                    suspect_set.add(v)
                j += 1
                continue
            # certificate: the alive suffix of the diameter path through j
            cert = pre[-1] - pre[seg_start] + state.w[path[seg_start]]
            if carved_any and cert < 6 * L:
                seeds.append(v)
                reseeded = True
                break
            ball, radius = _carve_ball(state, v)
            carved_any = True
            if radius < L:
                raise InvariantViolation("carve failed to reach the level scale")
            if state.strict and radius > L + state.cg.w_bar + state.g * state.eps * L:
                raise InvariantViolation("carved ball above its radius bound")
            # jump past the clipped window of the path
            wr = j
            while wr + 1 < len(path) and path[wr + 1] in ball:
                wr += 1
            # anything left of the window was swept branch-free: retire it
            for k in range(seg_start, j):
                if owner[path[k]] == -1 and path[k] not in suspect_set:
                    retired[path[k]] = True
            # side remnants hang off the ball (now grouped); re-seed them lazily
            beyond = path[wr + 1] if wr + 1 < len(path) else None
            for b in ball:
                for u, _, _ in tree_adj[b]:
                    if owner[u] == -1 and u != beyond:
                        seeds.append(u)
            j = wr + 1
            seg_start = j
        if not reseeded:
            for k in range(seg_start, len(path)):
                if owner[path[k]] == -1 and path[k] not in suspect_set:
                    retired[path[k]] = True
        for v in suspects:
            if owner[v] == -1:
                seeds.append(v)


# ---------------------------------------------------------------------------
# step 3: re-home tree-branching nodes stranded on long paths


def step3_augment(state: _State) -> None:
    movers: list[int] = []
    for tree in state.forest():
        if state.long_path(tree) is not None:
            movers.extend(u for u in tree.nodes if len(state.tree_adj[u]) >= 3)
    for phi in sorted(movers):
        xid, tid = state.host(state.tree_adj, (phi,), ("Step1", "Step2"))
        state.assign(phi, xid)
        state.parts[xid].tree_eids.append(tid)
        state.counters["step3"] += 1


# ---------------------------------------------------------------------------
# step 4: pair intervals of long paths joined by a deep class edge


class _Paths:
    """Array views of the current long paths with prefix sums and colors."""

    def __init__(self, state: _State):
        self.state = state
        self.node_path = [-1] * state.n  # path id, -1 when not on a long path
        self.node_pos = [0] * state.n
        self.paths: list[list[int]] = []
        self.pres: list[list[float]] = []
        self.eids: list[list[int]] = []
        self.color = [""] * state.n
        for tree in state.forest():
            found = state.long_path(tree)
            if found is None:
                continue
            path, pre, peids, _ = found
            if len(path) != len(tree.nodes):
                raise InvariantViolation("long tree survived the earlier steps unpathed")
            pid = len(self.paths)
            self.paths.append(path)
            self.pres.append(pre)
            self.eids.append(peids)
            for j, u in enumerate(path):
                self.node_path[u] = pid
                self.node_pos[u] = j
            self._color_initial(pid)

    def _dist(self, pid: int, a: int, b: int) -> float:
        pre = self.pres[pid]
        return pre[b] - pre[a] + self.state.w[self.paths[pid][a]]

    def _color_initial(self, pid: int) -> None:
        path = self.paths[pid]
        last = len(path) - 1
        for j, u in enumerate(path):
            near = min(self._dist(pid, 0, j), self._dist(pid, j, last))
            self.color[u] = "r" if near <= self.state.L else "b"

    def interval(self, v: int) -> tuple[int, int, int]:
        """Window of alive nodes within augmented distance <= L of v."""
        pid = self.node_path[v]
        path = self.paths[pid]
        j = self.node_pos[v]
        lo = j
        while lo - 1 >= 0 and self.state.alive(path[lo - 1]) and self._dist(pid, lo - 1, j) <= self.state.L:
            lo -= 1
        hi = j
        while hi + 1 < len(path) and self.state.alive(path[hi + 1]) and self._dist(pid, j, hi + 1) <= self.state.L:
            hi += 1
        return pid, lo, hi

    def recolor_inward(self, pid: int, flank: int, direction: int) -> None:
        """Mark nodes within L of a fresh cut endpoint red (never blue again)."""
        path = self.paths[pid]
        j = flank
        while 0 <= j < len(path) and self.state.alive(path[j]):
            a, b = (j, flank) if direction < 0 else (flank, j)
            if self._dist(pid, a, b) > self.state.L:
                break
            self.color[path[j]] = "r"
            j += direction


def step4_blue_pairs(state: _State) -> None:
    paths = _Paths(state)
    worklist = [
        cid
        for cid, (a, b, _, _) in enumerate(state.cg.class_edges)
        if paths.color[a] == "b" and paths.color[b] == "b"
    ]
    for cid in worklist:
        a, b, _, _ = state.cg.class_edges[cid]
        if not (state.alive(a) and state.alive(b)):
            continue
        if paths.color[a] != "b" or paths.color[b] != "b":
            continue
        pa, la, ha = paths.interval(a)
        pb, lb, hb = paths.interval(b)
        if pa == pb and not (ha < lb or hb < la):
            windows = [(pa, min(la, lb), max(ha, hb))]
        else:
            windows = [(pa, la, ha), (pb, lb, hb)]
        xid = state.new_part("Step4")
        state.parts[xid].class_eids.append(cid)
        for pid, lo, hi in windows:
            path = paths.paths[pid]
            state.take_window(xid, path, paths.eids[pid], lo, hi)
            if lo - 1 >= 0 and state.alive(path[lo - 1]):
                paths.recolor_inward(pid, lo - 1, -1)
            if hi + 1 < len(path) and state.alive(path[hi + 1]):
                paths.recolor_inward(pid, hi + 1, +1)
    for a, b, _, _ in state.cg.class_edges:
        both_blue = (
            state.alive(a) and state.alive(b) and paths.color[a] == "b" and paths.color[b] == "b"
        )
        if both_blue:
            raise InvariantViolation("a deep pair survived step 4")


# ---------------------------------------------------------------------------
# step 5: short trees attach, long paths split greedily


def step5_paths(state: _State) -> bool:
    grouped_tags = ("Step1", "Step2", "Step4")
    degenerate = not any(x.tag in grouped_tags for x in state.parts)
    for tree in state.forest():
        comp = tree.nodes
        adm = tree.total
        path = peids = None
        if adm >= state.L:
            path, _, peids, adm = state.tree_diameter(tree)

        if adm <= 6 * state.L:
            if degenerate:
                xid = state.new_part("Step5-pref")
                state.parts[xid].collapse = adm < state.L
            else:
                xid, tid = state.host(state.tree_adj, comp, grouped_tags)
                state.parts[xid].tree_eids.append(tid)
            inner = set(comp)
            for u in sorted(comp):
                state.assign(u, xid)
                for nb, _, tid in state.tree_adj[u]:
                    if nb in inner and nb > u:
                        state.parts[xid].tree_eids.append(tid)
            continue

        # long leftover: must be a bare path; split greedily
        if path is None or len(path) != len(comp):
            raise InvariantViolation("long leftover tree is not a path")
        if path[0] > path[-1]:
            path, peids = path[::-1], peids[::-1]
        pieces: list[tuple[int, int]] = []  # [start, end] index windows
        start = 0
        acc = state.w[path[0]]
        for j in range(1, len(path) + 1):
            if acc >= state.L:
                pieces.append((start, j - 1))
                if j < len(path):
                    start = j
                    acc = state.w[path[j]]
            elif j < len(path):
                acc += state.cg.tree_edges[peids[j - 1]][2] + state.w[path[j]]
        if start != 0 and (not pieces or pieces[-1][1] != len(path) - 1):
            # leftover too light to stand alone: merge into the final piece
            pieces[-1] = (pieces[-1][0], len(path) - 1)
        if not (pieces and pieces[0][0] == 0 and pieces[-1][1] == len(path) - 1):
            raise InvariantViolation("path pieces do not cover the path")

        for lo, hi in pieces:
            # pieces stand alone: each carries >= L of its own, and letting
            # them join a grouped part would cascade down the path and grow
            # that part past the diameter window
            is_end = lo == 0 or hi == len(path) - 1
            xid = state.new_part("Step5-pref" if is_end else "Step5-intrnl")
            state.take_window(xid, path, peids, lo, hi)
    return degenerate


# ---------------------------------------------------------------------------
# node partition and driver


def partition_nodes(state: _State, high: list[int], degenerate: bool) -> list[str]:
    if degenerate:
        return ["low-"] * state.n
    kind = ["low+"] * state.n
    for v in high:
        kind[v] = "high"
    for x in state.parts:
        if x.tag == "Step5-intrnl":
            for v in x.nodes:
                kind[v] = "low-"
    return kind


def cluster_level(cg: ClusterGraph, eps: float, strict: bool = False) -> ClusteringOutcome:
    """Partition the cluster-graph nodes into next-level subgraphs."""
    if strict and eps > STRICT_EPS:
        raise ValueError(f"strict mode needs eps <= {STRICT_EPS}, got {eps}")
    state = _State(cg, eps, strict)
    high = step1_high_nodes(state)
    step2_branching(state)
    step3_augment(state)
    step4_blue_pairs(state)
    degenerate = step5_paths(state)

    if -1 in state.owner:
        raise InvariantViolation("clustering left a node behind")

    kind = partition_nodes(state, high, degenerate)
    for a, b, _, _ in cg.class_edges:
        if {kind[a], kind[b]} == {"high", "low-"}:
            raise InvariantViolation("class edge joins a heavy node to a deep-path node")
    if degenerate and not any(x.collapse for x in state.parts):
        if len(cg.class_edges) > 4 * state.g / eps**2 + 1e-9:
            raise InvariantViolation("degenerate level with too many class edges")

    # bounds below only hold when eps is in the analyzed regime; larger
    # eps still runs, with stretch certified downstream instead
    analyzed = eps <= STRICT_EPS
    adm: list[float] = []
    local: list[float] = []
    corrected: list[float] = []
    node_weights, tree_edges, class_edges = cg.node_weights, cg.tree_edges, cg.class_edges
    for x in state.parts:
        nw = {v: node_weights[v] for v in x.nodes}
        edges = [tree_edges[t][:3] for t in x.tree_eids]
        edges += [class_edges[c][:3] for c in x.class_eids]
        a = augmented_diameter(nw, edges)
        d = sum(nw.values()) - a
        # corrected drop: the local drop plus the tree edges x consumes
        dplus = d + sum(tree_edges[t][2] for t in x.tree_eids)
        adm.append(a)
        local.append(d)
        corrected.append(dplus)
        if analyzed:
            if dplus < -1e-9 * state.L:
                raise InvariantViolation(f"corrected potential drop went negative: {dplus}")
            if not x.collapse:
                if a < state.L - 1e-9 * state.L:
                    raise InvariantViolation("part below the level scale")
                if a > state.g * state.L * (1 + 1e-9):
                    raise InvariantViolation("part above the potential window")
                if strict and x.tag == "Step2":
                    need = state.L / (2 * state.g * cg.prev_scale)
                    if len(x.nodes) < need - 1e-9:
                        raise InvariantViolation("step-2 part below its size bound")

    return ClusteringOutcome(
        groups=[x.nodes for x in state.parts],
        class_eids=[x.class_eids for x in state.parts],
        tags=[x.tag for x in state.parts],
        adm=adm,
        local_change=local,
        corrected_change=corrected,
        node_kind=kind,
        degenerate=degenerate,
        collapse=[x.collapse for x in state.parts],
        counters=dict(state.counters),
    )
