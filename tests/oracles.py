"""Reference implementations the test suite trusts.

Everything here is the slow, obviously-correct version: exhaustive
enumeration or cubic dynamic programming, sharing no code with the package
under test.  Tests compare fast implementations against these on inputs
small enough for the brute force to finish.
"""

from __future__ import annotations

import itertools
import math

INF = math.inf


def floyd_warshall(n: int, edges: list[tuple[int, int, float]]) -> list[list[float]]:
    """All-pairs shortest paths, cubic, undirected."""
    dist = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0.0
    for u, v, w in edges:
        if w < dist[u][v]:
            dist[u][v] = w
            dist[v][u] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def bfs_hops(n: int, pairs: list[tuple[int, int]], src: int) -> list[float]:
    """Hop distances from src in an unweighted graph."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    dist = [INF] * n
    dist[src] = 0
    queue = [src]
    for v in queue:
        for u in adj[v]:
            if dist[u] == INF:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def is_connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    if n == 0:
        return True
    return sum(1 for d in bfs_hops(n, pairs, 0) if d != INF) == n


def all_connected_graphs(n: int):
    """Yield every labeled connected graph on n vertices as a pair list.

    2^(n(n-1)/2) subsets, only viable for n <= 5 or so.
    """
    slots = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        pairs = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        if is_connected(n, pairs):
            yield pairs


def min_spanning_weight(n: int, edges: list[tuple[int, int, float]]) -> float:
    """Minimum spanning tree weight by trying every (n-1)-edge subset."""
    best = INF
    for subset in itertools.combinations(range(len(edges)), n - 1):
        pairs = [(edges[i][0], edges[i][1]) for i in subset]
        if is_connected(n, pairs):
            total = sum(edges[i][2] for i in subset)
            if total < best:
                best = total
    return best


def augmented_diameter_paths(
    node_weights: dict[int, float], edges: list[tuple[int, int, float]]
) -> float:
    """Max over simple paths of node weights plus edge weights on the path.

    Exponential path enumeration; any graph shape, nodes beyond ~12 are out.
    """
    adj: dict[int, list[tuple[int, float]]] = {v: [] for v in node_weights}
    for a, b, w in edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    best = 0.0

    def walk(v: int, seen: set, acc: float) -> None:
        nonlocal best
        if acc > best:
            best = acc
        for u, w in adj[v]:
            if u not in seen:
                seen.add(u)
                walk(u, seen, acc + w + node_weights[u])
                seen.remove(u)

    for start in node_weights:
        walk(start, {start}, node_weights[start])
    return best


def girth(n: int, pairs: list[tuple[int, int]]) -> float:
    """Length of the shortest cycle: for each edge, drop it and count the
    hops still needed between its endpoints."""
    best = INF
    for idx, (u, v) in enumerate(pairs):
        rest = pairs[:idx] + pairs[idx + 1 :]
        d = bfs_hops(n, rest, u)[v]
        if d + 1 < best:
            best = d + 1
    return best


def max_stretch(
    n: int,
    edges: list[tuple[int, int, float]],
    kept_ids: list[int],
    demand_ids: list[int] | None = None,
) -> float:
    """Worst d_H(u,v)/w(u,v) over the demanded edges, Floyd-Warshall based."""
    dist = floyd_warshall(n, [edges[i] for i in kept_ids])
    worst = 1.0
    for eid in demand_ids if demand_ids is not None else range(len(edges)):
        u, v, w = edges[eid]
        ratio = dist[u][v] / w
        if ratio > worst:
            worst = ratio
    return worst


def yao_graph(
    points: list[tuple[float, ...]], cone_of, radius: float | None = None
) -> list[tuple[int, int, float]]:
    """Cone graph by brute force over every ordered pair: per point and cone
    (cone_of maps a difference vector to a cone id), the edge to the nearest
    other point, ties to the lower id; with a radius, only pairs within it."""
    chosen = set()
    for u, pu in enumerate(points):
        best: dict = {}
        for v, pv in enumerate(points):
            dist = math.dist(pu, pv)
            if v == u or (radius is not None and dist > radius):
                continue
            cone = cone_of(tuple(b - a for a, b in zip(pu, pv)))
            best[cone] = min(best.get(cone, (INF, v)), (dist, v))
        chosen.update((min(u, v), max(u, v)) for _, v in best.values())
    return [(u, v, math.dist(points[u], points[v])) for u, v in sorted(chosen)]
