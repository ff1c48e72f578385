"""Seeded instance generators: random graphs, point sets, grids, planar.

Every generator draws from a single random.Random(seed) so identical
arguments reproduce identical instances byte for byte.
"""

from __future__ import annotations

import heapq
import math
import random

from .graphs import SUBDIVISION_VERTEX_BUDGET, PointSet, WeightedGraph


def check_vertex_count(count: int) -> None:
    """Refuse, before allocating, more vertices than subdivide_mst (so any build) accepts."""
    if count > SUBDIVISION_VERTEX_BUDGET:
        raise ValueError(f"{count} vertices are more than the {SUBDIVISION_VERTEX_BUDGET} a build takes")


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labeled tree from a random Pruefer sequence."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def random_connected_graph(
    n: int, m: int, seed: int, w_lo: float = 1.0, w_hi: float = 1000.0
) -> WeightedGraph:
    """Random spanning tree plus uniform extra edges; weights U[w_lo, w_hi]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_vertex_count(n)
    max_m = n * (n - 1) // 2
    if m < n - 1 or m > max_m:
        raise ValueError(f"m = {m} infeasible for n = {n} (need {n - 1} <= m <= {max_m})")
    if not (0 < w_lo <= w_hi < math.inf):
        raise ValueError(f"weight range must be finite with 0 < w_lo <= w_hi, got [{w_lo}, {w_hi}]")
    rng = random.Random(seed)
    pairs = set(_random_tree_edges(n, rng))
    while len(pairs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = [(u, v, rng.uniform(w_lo, w_hi)) for u, v in sorted(pairs)]
    return WeightedGraph(n, edges)


def uniform_points(n: int, d: int, seed: int) -> PointSet:
    """n distinct uniform points in the unit cube."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n = {n}, d = {d}")
    check_vertex_count(n)
    rng = random.Random(seed)
    seen: set[tuple[float, ...]] = set()
    pts: list[tuple[float, ...]] = []
    while len(pts) < n:
        p = tuple(rng.random() for _ in range(d))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return PointSet(d, pts)


def grid_graph(rows: int, cols: int, seed: int, jitter: float = 0.0) -> WeightedGraph:
    """rows x cols lattice; unit weights, optionally jittered by U[0, jitter]."""
    if rows < 1 or cols < 1:
        raise ValueError(f"need rows, cols >= 1, got {rows} x {cols}")
    check_vertex_count(rows * cols)
    if not (0.0 <= jitter < math.inf):
        raise ValueError(f"jitter must be a finite float >= 0, got {jitter}")
    rng = random.Random(seed)
    edges = []

    def vid(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), 1.0 + rng.uniform(0.0, jitter)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), 1.0 + rng.uniform(0.0, jitter)))
    return WeightedGraph(rows * cols, edges)


def planar_triangulation(n: int, seed: int) -> WeightedGraph:
    """Delaunay triangulation of n random points, edge weights = distances.

    Planar by construction, so it is K_5-minor-free; a ready-made input for
    the minor-free mode.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 for a triangulation, got {n}")
    from scipy.spatial import Delaunay

    p = uniform_points(n, 2, seed)
    tri = Delaunay(p.points)
    pairs: set[tuple[int, int]] = set()
    for simplex in tri.simplices:
        a, b, c = (int(x) for x in simplex)
        for u, v in ((a, b), (b, c), (a, c)):
            pairs.add((min(u, v), max(u, v)))
    edges = [(u, v, p.distance(u, v)) for u, v in sorted(pairs)]
    return WeightedGraph(n, edges)
