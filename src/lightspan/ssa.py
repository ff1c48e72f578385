"""Pluggable sparse-spanner subroutine over a near-uniform cluster graph.

A backend receives the heavy nodes of one level with the class edges between
them (all weights within a (1+eps) factor of the level scale) and keeps a
subset of at most chi * |nodes| edges.  The backends declare no stretch
constant: the pipeline owns s(beta).  Three instantiations: Euclidean
cones, general graphs via an unweighted spanner on the node graph, and the
minor-free identity.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

from .hierarchy import POTENTIAL_RATIO, InvariantViolation

DEFAULT_BETA = 2 * POTENTIAL_RATIO


# s(beta) of ssa_general and ssa_geom; only the pipeline's S_* constants read them
def s_general(beta: float) -> float:
    return 2.0 * beta + 1.0


def s_geom(beta: float) -> float:
    return 2.0 * (19.0 * beta + 14.0)


# deterministic greedy below this many nodes, sampling above
GREEDY_NODE_CAP = 500


class DimensionMismatch(ValueError):
    pass


@dataclass
class SsaInput:
    """Heavy-node view of one level: nodes, high-high class edges, scales."""

    nodes: list[int]
    edges: list[tuple[int, int, float, int]]  # (u, v, w, source edge id)
    level_scale: float  # L, the lower end of the class edge weights
    eps: float
    psi: float  # width of the weight window
    gamma: float  # running stretch constant of the lighter part
    reps: dict[int, int] = field(default_factory=dict)
    strict: bool = False

    def validate(self) -> None:
        lo = self.level_scale * (1.0 - 1e-9)
        hi = self.level_scale * (1.0 + self.psi) * (1.0 + 1e-9)
        members = set(self.nodes)
        for u, v, w, _ in self.edges:
            if not (lo <= w <= hi):
                raise ValueError(f"edge weight {w} outside [{lo}, {hi}]")
            if u not in members or v not in members:
                raise ValueError("edge endpoint is not a listed node")


@dataclass
class SsaOutput:
    pruned: list[int]  # indices into the input edge list
    sparsity: float  # chi; ssa_geom's cone count is an exact int that can exceed any float

    def assert_sparse(self, n_nodes: int) -> None:
        if len(self.pruned) - 1e-9 > self.sparsity * max(1, n_nodes):
            raise InvariantViolation(
                f"kept {len(self.pruned)} edges, allowed {self.sparsity} * {n_nodes}"
            )


# ---------------------------------------------------------------------------
# cones for the geometric backends


def _cone_count_2d(eps: float) -> int:
    return max(1, math.ceil(2.0 * math.pi / eps))


def cone_selector(d: int, theta: float):
    """(cone count, vec -> cone id) with same-cone angular spread <= theta.

    At d = 2 the cones are angular sectors: cone j holds the atan2 angles
    [j theta, (j + 1) theta), taken in [0, 2 pi), the last cone up to 2 pi.
    The closure reads vec as a (dx, dy) pair.  Otherwise the id is the sign
    pattern of vec plus, for j < d - 1, the cell min(floor(steps |x_j| /
    |x|_1), steps - 1): the cell of vec's radial projection x / |x|_1 in a
    barycentric grid on a face of the cross-polytope, mixed-radix encoded,
    so there are 2^d steps^(d-1) cones.  Two vectors in one cell project to face points that differ by
    at most 1/steps in each of the first d - 1 coordinates and so by at
    most (d - 1)/steps in the last, hence lie within sqrt(d(d - 1))/steps
    of each other.  Face points have Euclidean norm >= 1/sqrt(d), so by
    Dunkl-Williams their unit vectors lie within chord d sqrt(d - 1)/steps,
    and the angle is at most pi/2 times the chord.  Hence
    steps = ceil(pi d sqrt(d - 1) / (2 theta)) keeps every cone within
    theta.  At d = 1 steps is 0 and only the sign is left: two cones, id 1
    for x < 0 and 0 otherwise, -0.0 included.
    """
    if d == 2:
        tau = _cone_count_2d(theta)
        last = tau - 1
        two_pi = 2.0 * math.pi

        def cone_of_2d(vec) -> int:
            dx, dy = vec
            ang = math.atan2(dy, dx)
            if ang < 0.0:
                ang += two_pi
            j = int(ang / theta)
            return j if j < last else last

        return tau, cone_of_2d
    steps = math.ceil(math.pi * d * math.sqrt(d - 1) / (2.0 * theta))

    def cone_of(vec) -> int:
        norm1 = sum(map(abs, vec))
        cone = 0
        for x in vec:
            cone = 2 * cone + (x < 0)
        for x in vec[:-1]:
            cone = cone * steps + min(int(steps * abs(x) / norm1), steps - 1)
        return cone

    return 2**d * steps ** (d - 1), cone_of


# widening, in radians and relative distance, that cone_reach_2d adds to each
# cone: far above the rounding of a difference vector, atan2 and the cone
# division, which are a few ulps
REACH_SLACK = 1e-9


def cone_reach_2d(theta: float, lo: tuple[float, float], hi: tuple[float, float]):
    """u -> per-cone reach of cone_selector(2, theta) inside the box [lo, hi],
    or None when some cone is at most 4 REACH_SLACK wide.

    The reach of cone c is an upper bound on math.dist(u, v) for every
    point v of the box that cone_of(v - u) puts in cone c, u in the box.
    Cone c holds the angles [c theta, (c + 1) theta), the last one up to
    2 pi.  Rounding moves a vector's computed angle by far less than
    REACH_SLACK, so v lies in the cone's true wedge widened by REACH_SLACK
    on both sides.  That wedge's intersection with the box is a polygon
    whose vertices are u, the two boundary rays' exits from the box (a ray
    from inside a box leaves it once) and the box corners inside the wedge,
    and the farthest point of a polygon from u is a vertex.  A corner is
    charged to the cones at its angle +- 2 REACH_SLACK, which, every cone
    being wider than that interval, include each widened wedge holding it.
    The result is scaled by 1 + REACH_SLACK for the rounding of the exits
    and of math.dist.  A flat box is fine.
    """
    tau = _cone_count_2d(theta)
    two_pi = 2.0 * math.pi
    margin = 2.0 * REACH_SLACK
    if theta <= 2.0 * margin or two_pi - (tau - 1) * theta <= 2.0 * margin:
        return None
    bounds = [c * theta for c in range(tau)] + [two_pi]
    angles = [a for c in range(tau) for a in (bounds[c] - REACH_SLACK, bounds[c + 1] + REACH_SLACK)]
    # neither sine nor cosine of these angles is exactly 0
    rays = [(math.cos(a), math.sin(a)) for a in angles]
    corners = [(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]

    def reach(u: tuple[float, float]) -> list[float]:
        ux, uy = u
        xh, xl, yh, yl = hi[0] - ux, lo[0] - ux, hi[1] - uy, lo[1] - uy
        exits = [min((xh if c > 0 else xl) / c, (yh if s > 0 else yl) / s) for c, s in rays]
        out = list(map(max, exits[0::2], exits[1::2]))
        for corner in corners:
            if corner == u:
                continue
            dist = math.dist(corner, u)
            a = math.atan2(corner[1] - uy, corner[0] - ux)
            for x in (a - margin, a + margin):
                j = min(int(x % two_pi / theta), tau - 1)
                out[j] = max(out[j], dist)
        return [r * (1.0 + REACH_SLACK) for r in out]

    return reach


# ---------------------------------------------------------------------------
# backends


def ssa_geom(inp: SsaInput, d: int, positions) -> SsaOutput:
    """Keep, per node and per cone of angular spread eps, the nearest neighbor.

    Cones come from cone_selector(d, eps), as in the geometric base graphs.
    positions maps a node id to its representative point in R^d.  Ties on
    distance break toward the lower node id, then the lower source edge id.
    """
    if inp.strict:
        cap = min(1.0 / (8 * DEFAULT_BETA + 6), 1.0 / inp.gamma)
        if inp.eps > cap:
            raise ValueError(f"strict cone mode needs eps <= {cap}, got {inp.eps}")
    if d < 1:
        raise DimensionMismatch(f"dimension must be positive, got {d}")
    tau, cone_of = cone_selector(d, inp.eps)

    incident: dict[int, list[int]] = {v: [] for v in inp.nodes}
    for idx, (u, v, _, _) in enumerate(inp.edges):
        incident[u].append(idx)
        incident[v].append(idx)

    keep: set[int] = set()
    for u in inp.nodes:
        pu = positions[u]
        if len(pu) != d:
            raise DimensionMismatch(f"point of node {u} has {len(pu)} coordinates, expected {d}")
        best: dict[int, tuple[float, int, int]] = {}
        for idx in incident[u]:
            a, b, _, src = inp.edges[idx]
            v = b if a == u else a
            pv = positions[v]
            vec = tuple(x - y for x, y in zip(pv, pu))
            cone = cone_of(vec)
            dist = math.sqrt(sum(c * c for c in vec))
            cand = (dist, v, src, idx)
            cur = best.get(cone)
            if cur is None or cand[:3] < cur[:3]:
                best[cone] = cand
        for cand in best.values():
            keep.add(cand[3])

    out = SsaOutput(pruned=sorted(keep), sparsity=tau)
    out.assert_sparse(len(inp.nodes))
    return out


def ssa_general(inp: SsaInput, k: int) -> SsaOutput:
    """Unweighted spanner on the node graph, mapped back to class edges."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    index = {v: j for j, v in enumerate(inp.nodes)}
    jedges = [(index[u], index[v]) for u, v, _, _ in inp.edges]
    kept = unweighted_spanner(len(inp.nodes), jedges, k)
    n = max(1, len(inp.nodes))
    out = SsaOutput(
        pruned=sorted(kept),
        sparsity=n ** (1.0 / k) * (1.0 if len(inp.nodes) <= GREEDY_NODE_CAP else 4.0 * k) + 2.0,
    )
    out.assert_sparse(len(inp.nodes))
    return out


def ssa_minor(inp: SsaInput) -> SsaOutput:
    """Identity: minor-free node graphs are already sparse, keep everything."""
    n = max(1, len(inp.nodes))
    out = SsaOutput(pruned=list(range(len(inp.edges))), sparsity=len(inp.edges) / n)
    out.assert_sparse(len(inp.nodes))
    return out


# ---------------------------------------------------------------------------
# unweighted (2k-1)-spanner


def unweighted_spanner(n: int, edges: list[tuple[int, int]], k: int) -> list[int]:
    """Edge ids of a (2k-1)-spanner of the simple unweighted graph.

    Deterministic greedy (keep an edge unless the kept graph already joins
    its endpoints within 2k-1 hops) below GREEDY_NODE_CAP nodes; cluster
    sampling with a size cap above it.  Both keep every input edge's
    endpoints within 2k-1 hops of each other.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n <= GREEDY_NODE_CAP:
        return _greedy_girth_spanner(n, edges, k)
    return _sampling_spanner(n, edges, k)


def _greedy_girth_spanner(n: int, edges: list[tuple[int, int]], k: int) -> list[int]:
    adj: list[list[int]] = [[] for _ in range(n)]
    kept: list[int] = []
    limit = 2 * k - 1
    for eid, (u, v) in enumerate(edges):
        if u == v:
            continue
        if _hop_dist_at_most(adj, u, v, limit):
            continue
        adj[u].append(v)
        adj[v].append(u)
        kept.append(eid)
    return kept


def _hop_dist_at_most(adj: list[list[int]], s: int, t: int, limit: int) -> bool:
    if s == t:
        return True
    seen = {s: 0}
    q = deque([s])
    while q:
        x = q.popleft()
        dx = seen[x]
        if dx == limit:
            continue
        for y in adj[x]:
            if y not in seen:
                if y == t:
                    return True
                seen[y] = dx + 1
                q.append(y)
    return False


def _sampling_spanner(n: int, edges: list[tuple[int, int]], k: int) -> list[int]:
    """Cluster-sampling spanner, resampled until the size bound holds."""
    cap = 4.0 * k * n ** (1.0 + 1.0 / k) + 2.0 * n
    rng = random.Random(0x5A1EC0 ^ (n * 1_000_003 + len(edges) * 97 + k))
    for _ in range(64):
        kept = _sampling_round(n, edges, k, rng)
        if len(kept) <= cap:
            return kept
    # vanishing probability; fall back to the deterministic construction
    return _greedy_girth_spanner(n, edges, k)


def _sampling_round(n: int, edges: list[tuple[int, int]], k: int, rng: random.Random) -> list[int]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        if u != v:
            adj[u].append((v, eid))
            adj[v].append((u, eid))
    p = n ** (-1.0 / k)
    cluster = list(range(n))  # cluster center per vertex, -1 once discarded
    kept: set[int] = set()
    alive_edge = [True] * len(edges)

    for _ in range(k - 1):
        sampled = {c for c in set(cluster) if c >= 0 and rng.random() < p}
        new_cluster = [-1] * n
        for v in range(n):
            if cluster[v] in sampled:
                new_cluster[v] = cluster[v]
        for v in range(n):
            if cluster[v] < 0 or new_cluster[v] >= 0:
                continue
            # join the first sampled neighboring cluster, else keep one edge
            # per neighboring cluster and drop out
            joined = False
            for u, eid in adj[v]:
                if alive_edge[eid] and cluster[u] in sampled:
                    kept.add(eid)
                    new_cluster[v] = cluster[u]
                    joined = True
                    break
            if not joined:
                per_cluster: dict[int, int] = {}
                for u, eid in adj[v]:
                    c = cluster[u]
                    if alive_edge[eid] and c >= 0 and c not in per_cluster:
                        per_cluster[c] = eid
                kept.update(per_cluster.values())
                for u, eid in adj[v]:
                    alive_edge[eid] = False
        # drop intra-cluster edges
        for eid, (u, v) in enumerate(edges):
            if alive_edge[eid] and new_cluster[u] >= 0 and new_cluster[u] == new_cluster[v]:
                alive_edge[eid] = False
        cluster = new_cluster

    for v in range(n):
        per_cluster: dict[int, int] = {}
        for u, eid in adj[v]:
            c = cluster[u]
            if alive_edge[eid] and c >= 0 and c not in per_cluster:
                per_cluster[c] = eid
        kept.update(per_cluster.values())
    return sorted(kept)
