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

from collections import deque
from dataclasses import dataclass, field

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
    level_scale: float
    counters: dict[str, int] = field(default_factory=dict)


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
        self.tree_adj: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
        for tid, (a, b, wt, _) in enumerate(cg.tree_edges):
            self.tree_adj[a].append((b, wt, tid))
            self.tree_adj[b].append((a, wt, tid))
        self.class_adj: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
        for cid, (a, b, wt, _) in enumerate(cg.class_edges):
            self.class_adj[a].append((b, wt, cid))
            self.class_adj[b].append((a, wt, cid))
        self.owner = [-1] * n
        self.parts: list[Subgraph] = []
        self.counters: dict[str, int] = {
            "scan": 0,
            "step1": 0,
            "step2": 0,
            "step3": 0,
            "step4": 0,
            "step5": 0,
        }

    def tick(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount

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

    def alive_tree_neighbors(self, v: int):
        for u, wt, tid in self.tree_adj[v]:
            if self.owner[u] == -1:
                yield u, wt, tid

    # ------------------------------------------------------------------
    # forest helpers over ungrouped nodes

    def component(self, seed: int) -> tuple[list[int], float]:
        """Nodes of seed's ungrouped component and its total augmented weight."""
        nodes = [seed]
        seen = {seed}
        total = self.w[seed]
        stack = [seed]
        while stack:
            v = stack.pop()
            for u, wt, _ in self.alive_tree_neighbors(v):
                if u not in seen:
                    seen.add(u)
                    nodes.append(u)
                    total += wt + self.w[u]
                    stack.append(u)
            self.tick("scan")
        return nodes, total

    def components(self):
        """(nodes, total augmented weight) of each ungrouped component, in the
        order of their least nodes, each seeded at that node."""
        seen = [False] * self.n
        for v in range(self.n):
            if self.alive(v) and not seen[v]:
                comp, total = self.component(v)
                for u in comp:
                    seen[u] = True
                yield comp, total

    def long_path(self, comp: list[int], total: float):
        """diameter_path(comp) when its Adm is >= 6L, else None."""
        if total < 6 * self.L:  # Adm <= total
            return None
        found = self.diameter_path(comp)
        return found if found[3] >= 6 * self.L else None

    def take_window(self, xid: int, path: list[int], eids: list[int], lo: int, hi: int) -> None:
        """Group path[lo..hi] into part xid with the path edges between them."""
        for v in path[lo : hi + 1]:
            self.assign(v, xid)
        self.parts[xid].tree_eids.extend(eids[lo:hi])

    def farthest(self, src: int) -> tuple[int, float, dict[int, float], dict[int, tuple[int, int]]]:
        """Deepest node by augmented distance in src's ungrouped component,
        with each reached node's distance and (parent, tree edge id)."""
        dist = {src: self.w[src]}
        up: dict[int, tuple[int, int]] = {}
        best, best_d = src, self.w[src]
        stack = [src]
        while stack:
            v = stack.pop()
            dv = dist[v]
            for u, wt, tid in self.alive_tree_neighbors(v):
                if u not in dist:
                    d = dv + wt + self.w[u]
                    dist[u] = d
                    up[u] = (v, tid)
                    if d > best_d or (d == best_d and u < best):
                        best, best_d = u, d
                    stack.append(u)
        return best, best_d, dist, up

    def diameter_path(self, nodes: list[int]) -> tuple[list[int], list[float], list[int], float]:
        """Augmented diameter path of a whole ungrouped component: node list,
        prefix sums, edge ids, Adm."""
        a, _, _, _ = self.farthest(min(nodes))
        b, adm, dist, up = self.farthest(a)
        path = [b]
        eids: list[int] = []
        while path[-1] != a:
            v, tid = up[path[-1]]
            path.append(v)
            eids.append(tid)
        path.reverse()
        eids.reverse()
        # dist[] sums from a along the path: the prefix sums of the path
        return path, [dist[v] for v in path], eids, adm


# ---------------------------------------------------------------------------
# step 1: nodes with many class edges


def step1_high_nodes(state: _State) -> list[int]:
    """Group every heavily-connected node and its class neighborhood into stars."""
    thresh = 2.0 * state.g / state.eps
    high = [v for v in range(state.n) if len(state.class_adj[v]) >= thresh]
    blocked = [False] * state.n

    for center in high:
        closed = [center] + [u for u, _, _ in state.class_adj[center]]
        if any(blocked[v] for v in closed):
            continue
        xid = state.new_part("Step1")
        for v in closed:
            blocked[v] = True
            if state.owner[v] == -1:
                state.assign(v, xid)
        for u, _, cid in state.class_adj[center]:
            state.parts[xid].class_eids.append(cid)
        state.tick("step1", len(closed))

    # leftover heavy nodes, then their neighbors, join the least grouped
    # class neighbor's part
    for v in high + [u for center in high for u, _, _ in state.class_adj[center]]:
        if state.owner[v] != -1:
            continue
        host = min(
            (u for u, _, _ in state.class_adj[v] if state.owner[u] != -1),
            default=None,
        )
        if host is None:
            raise InvariantViolation("ungrouped step-1 node with no grouped neighbor")
        cid = next(c for u, _, c in state.class_adj[v] if u == host)
        xid = state.owner[host]
        state.assign(v, xid)
        state.parts[xid].class_eids.append(cid)
        state.tick("step1")

    if state.strict:
        for x in state.parts:
            if len(x.nodes) < thresh:
                raise InvariantViolation("step-1 part below its size bound")
    return high


# ---------------------------------------------------------------------------
# step 2: carve balls around branching nodes of long trees


def _carve_ball(state: _State, phi: int) -> tuple[set[int], float]:
    """Nodes within augmented distance < L of phi plus the first node at >= L
    on each branch; returns the ball and the radius actually reached."""
    L = state.L
    ball = {phi}
    dist = {phi: state.w[phi]}
    radius = state.w[phi]
    stack = [phi]
    xid = state.new_part("Step2")
    while stack:
        v = stack.pop()
        dv = dist[v]
        for u, wt, tid in state.alive_tree_neighbors(v):
            if u in ball:
                continue
            d = dv + wt + state.w[u]
            ball.add(u)
            dist[u] = d
            radius = max(radius, d)
            state.parts[xid].tree_eids.append(tid)
            if d < L:
                stack.append(u)
        state.tick("step2")
    for v in sorted(ball):
        state.assign(v, xid)
    return ball, radius


def step2_branching(state: _State) -> None:
    """Repeatedly carve a ball around a branching node of a currently-long tree.

    A task owns one component; the suffix of its diameter path doubles as a
    longness certificate so that the common case never recomputes diameters.
    When the certificate runs out the remaining region is re-seeded as a
    fresh task, whose first carve is justified by a freshly computed path.
    Low-degree path nodes that still hold an off-path subtree (their path
    neighbor died to a ball, or a tied diameter endpoint) are re-tasked too;
    retirement is reserved for nodes proven bare at sweep time.
    """
    L = state.L
    retired = [False] * state.n
    seeds = deque(comp[0] for comp, _ in state.components())

    while seeds:
        seed = seeds.popleft()
        if not state.alive(seed) or retired[seed]:
            continue
        comp, total = state.component(seed)
        found = state.long_path(comp, total)
        if found is None:
            for v in comp:
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
            if not state.alive(v):
                j += 1
                continue
            deg = 0
            off_path = False
            for u, _, _ in state.alive_tree_neighbors(v):
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
                if state.alive(path[k]) and path[k] not in suspect_set:
                    retired[path[k]] = True
            # side remnants hang off the ball; re-seed them lazily
            for b in ball:
                for u, _, _ in state.alive_tree_neighbors(b):
                    if u not in ball and pos.get(u) != wr + 1:
                        seeds.append(u)
            j = wr + 1
            seg_start = j
        if not reseeded:
            for k in range(seg_start, len(path)):
                if state.alive(path[k]) and path[k] not in suspect_set:
                    retired[path[k]] = True
        for v in suspects:
            if state.alive(v):
                seeds.append(v)


# ---------------------------------------------------------------------------
# step 3: re-home tree-branching nodes stranded on long paths


def step3_augment(state: _State) -> None:
    movers: list[int] = []
    for comp, total in state.components():
        if state.long_path(comp, total) is not None:
            movers.extend(u for u in comp if len(state.tree_adj[u]) >= 3)
    for phi in sorted(movers):
        host_edge = None
        for u, _, tid in state.tree_adj[phi]:
            if state.owner[u] != -1 and state.parts[state.owner[u]].tag in ("Step1", "Step2"):
                if host_edge is None or u < host_edge[0]:
                    host_edge = (u, tid)
        if host_edge is None:
            raise InvariantViolation("stranded branching node has no grouped neighbor")
        xid = state.owner[host_edge[0]]
        state.assign(phi, xid)
        state.parts[xid].tree_eids.append(host_edge[1])
        state.tick("step3")


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
        for comp, total in state.components():
            found = state.long_path(comp, total)
            if found is None:
                continue
            path, pre, peids, _ = found
            if len(path) != len(comp):
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
            self.state.tick("step4")
        hi = j
        while hi + 1 < len(path) and self.state.alive(path[hi + 1]) and self._dist(pid, j, hi + 1) <= self.state.L:
            hi += 1
            self.state.tick("step4")
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
            self.state.tick("step4")


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
    for comp, total in state.components():
        adm = total
        path = peids = None
        if total >= state.L:
            path, _, peids, adm = state.diameter_path(comp)

        if adm <= 6 * state.L:
            if degenerate:
                xid = state.new_part("Step5-pref")
                state.parts[xid].collapse = adm < state.L
            else:
                host = None
                for u in comp:
                    for nb, _, tid in state.tree_adj[u]:
                        ow = state.owner[nb]
                        if ow != -1 and state.parts[ow].tag in grouped_tags:
                            if host is None or nb < host[0]:
                                host = (nb, tid)
                if host is None:
                    raise InvariantViolation("short tree with no grouped neighbor")
                xid = state.owner[host[0]]
                state.parts[xid].tree_eids.append(host[1])
            inner = set(comp)
            for u in sorted(comp):
                state.assign(u, xid)
                for nb, _, tid in state.tree_adj[u]:
                    if nb in inner and nb > u:
                        state.parts[xid].tree_eids.append(tid)
            state.tick("step5", len(comp))
            continue

        # long leftover: must be a bare path; split greedily
        if path is None or len(path) != len(comp):
            raise InvariantViolation("long leftover tree is not a path")
        if path[0] > path[-1]:
            path.reverse()
            peids.reverse()
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
            state.tick("step5", hi - lo + 1)
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
    for x in state.parts:
        nw = {v: cg.node_weights[v] for v in x.nodes}
        edges = [
            (cg.tree_edges[t][0], cg.tree_edges[t][1], cg.tree_edges[t][2]) for t in x.tree_eids
        ]
        edges += [
            (cg.class_edges[c][0], cg.class_edges[c][1], cg.class_edges[c][2])
            for c in x.class_eids
        ]
        a = augmented_diameter(nw, edges)
        d = sum(nw.values()) - a
        # corrected drop: the local drop plus the tree edges x consumes
        dplus = d + sum(cg.tree_edges[t][2] for t in x.tree_eids)
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
        level_scale=cg.level_scale,
        counters=dict(state.counters),
    )
