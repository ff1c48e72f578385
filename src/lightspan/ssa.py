"""Pluggable sparse-spanner subroutine over a near-uniform cluster graph.

A backend receives the heavy nodes of one level with the class edges between
them (all weights within a (1+eps) factor of the level scale) and keeps a
subset of at most chi * |nodes| edges, declaring the constant that enters
the level's stretch bound.  Three instantiations: Euclidean cones, general
graphs via an unweighted spanner on the node graph, and the minor-free
identity.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

from .hierarchy import POTENTIAL_RATIO

DEFAULT_BETA = 2 * POTENTIAL_RATIO

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
    beta: float = DEFAULT_BETA
    psi: float | None = None  # width of the weight window, defaults to eps
    gamma: float | None = None  # running stretch constant of the lighter part
    reps: dict[int, int] = field(default_factory=dict)
    strict: bool = False

    def validate(self) -> None:
        width = 1.0 + (self.psi if self.psi is not None else self.eps)
        lo = self.level_scale * (1.0 - 1e-9)
        hi = self.level_scale * width * (1.0 + 1e-9)
        members = set(self.nodes)
        for u, v, w, _ in self.edges:
            if not (lo <= w <= hi):
                raise ValueError(f"edge weight {w} outside [{lo}, {hi}]")
            if u not in members or v not in members:
                raise ValueError("edge endpoint is not a listed node")


@dataclass
class SsaOutput:
    pruned: list[int]  # indices into the input edge list
    sparsity: float  # chi
    stretch_constant: float  # s(beta)

    def assert_sparse(self, n_nodes: int) -> None:
        assert len(self.pruned) <= self.sparsity * max(1, n_nodes) + 1e-9, (
            f"kept {len(self.pruned)} edges, allowed {self.sparsity} * {n_nodes}"
        )


# ---------------------------------------------------------------------------
# direction nets for the cone backend


def _cone_count_2d(eps: float) -> int:
    return max(1, math.ceil(2.0 * math.pi / eps))


def _cone_index_2d(dx: float, dy: float, eps: float, tau: int) -> int:
    ang = math.atan2(dy, dx)
    if ang < 0.0:
        ang += 2.0 * math.pi
    j = int(ang / eps)
    return min(j, tau - 1)


def _face_grid(signs: tuple[int, ...], steps: int, out: list[tuple[float, ...]], seen: set) -> None:
    """Barycentric grid on one cross-polytope face, projected to the sphere."""
    d = len(signs)

    def rec(axis: int, left: int, coeffs: list[int]) -> None:
        if axis == d - 1:
            coeffs.append(left)
            v = [signs[j] * coeffs[j] / steps for j in range(d)]
            norm = math.sqrt(sum(c * c for c in v))
            p = tuple(c / norm for c in v)
            key = tuple(round(c, 12) for c in p)
            if key not in seen:
                seen.add(key)
                out.append(p)
            coeffs.pop()
            return
        for take in range(left + 1):
            coeffs.append(take)
            rec(axis + 1, left - take, coeffs)
            coeffs.pop()

    rec(0, steps, [])


def direction_net(d: int, eps: float) -> list[tuple[float, ...]]:
    """Unit directions such that every vector lies within angle eps of one.

    Each cross-polytope face carries a barycentric grid of step 1/steps,
    radially projected to the sphere.  A flat grid cell has chord diameter
    sqrt(2)/steps, the projection from the face plane (distance >= 1/sqrt(d)
    from the origin) stretches chords by at most sqrt(d), and chord bounds
    angle from above, so steps = ceil(2 sqrt(2d) / eps) is enough with a
    factor-2 margin; the property tests sample this.
    """
    if d < 3:
        raise DimensionMismatch("direction nets are for d >= 3")
    steps = max(1, math.ceil(2.0 * math.sqrt(2.0 * d) / eps))
    # refuse before allocating: each face's grid has one point per
    # composition of steps into d parts
    size = 2**d * math.comb(steps + d - 1, d - 1)
    if size > 2**20:
        raise ValueError(f"a direction net for eps={eps} at d={d} needs {size} > 2^20 grid points")
    out: list[tuple[float, ...]] = []
    seen: set = set()
    for mask in range(1 << d):
        signs = tuple(1 if mask >> axis & 1 else -1 for axis in range(d))
        _face_grid(signs, steps, out, seen)
    return out


def _cone_index_net(vec: tuple[float, ...], net: list[tuple[float, ...]]) -> int:
    best, best_dot = 0, -2.0
    norm = math.sqrt(sum(c * c for c in vec))
    for j, nv in enumerate(net):
        dot = sum(a * b for a, b in zip(vec, nv)) / norm
        if dot > best_dot + 1e-15:
            best, best_dot = j, dot
    return best


def cone_selector(d: int, theta: float):
    """(cone count, vec -> cone id) with same-cone angular spread <= theta."""
    if d == 1:
        return 2, lambda vec: 0 if vec[0] >= 0 else 1
    if d == 2:
        tau = _cone_count_2d(theta)
        return tau, lambda vec: _cone_index_2d(vec[0], vec[1], theta, tau)
    # net resolution theta/2: two vectors sharing a nearest direction are
    # within theta of each other
    net = direction_net(d, theta / 2.0)
    if len(net) > 64:
        import numpy as np

        mat = np.asarray(net)
        return len(net), lambda vec: int(np.argmax(mat @ vec))
    return len(net), lambda vec: _cone_index_net(vec, net)


# ---------------------------------------------------------------------------
# backends


def ssa_geom(inp: SsaInput, d: int, positions) -> SsaOutput:
    """Keep, per node and per cone of angular spread eps, the nearest neighbor.

    Cones come from cone_selector(d, eps), as in the geometric base graphs.
    positions maps a node id to its representative point in R^d.  Ties on
    distance break toward the lower node id, then the lower source edge id.
    """
    if inp.strict:
        cap = 1.0 / (8 * inp.beta + 6)
        if inp.gamma:
            cap = min(cap, 1.0 / inp.gamma)
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

    out = SsaOutput(
        pruned=sorted(keep),
        sparsity=float(tau),
        stretch_constant=2.0 * (19.0 * inp.beta + 14.0),
    )
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
        stretch_constant=2.0 * inp.beta + 1.0,
    )
    out.assert_sparse(len(inp.nodes))
    return out


def ssa_minor(inp: SsaInput) -> SsaOutput:
    """Identity: minor-free node graphs are already sparse, keep everything."""
    n = max(1, len(inp.nodes))
    out = SsaOutput(
        pruned=list(range(len(inp.edges))),
        sparsity=len(inp.edges) / n,
        stretch_constant=0.0,
    )
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
