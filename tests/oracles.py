"""Reference implementations the test suite trusts.

Everything here is the slow, obviously-correct version: exhaustive
enumeration or cubic dynamic programming, sharing no code with the package
under test.  Tests compare fast implementations against these on inputs
small enough for the brute force to finish.
"""

from __future__ import annotations

import heapq
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


def chain_shadow(
    node_weights: list[float], edges: list[tuple[int, int, float]], a: int, b: int
) -> float | None:
    """Augmented weight of the tree path from a to b (its edge weights plus
    the node weights of every node on it, both ends included), or None when
    an interior node of the path has tree degree 3 or more."""
    adj: list[list[tuple[int, float]]] = [[] for _ in node_weights]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    back: dict[int, tuple[int, float]] = {a: (a, 0.0)}
    stack = [a]
    while stack:
        x = stack.pop()
        for y, w in adj[x]:
            if y not in back:
                back[y] = (x, w)
                stack.append(y)
    path, total, x = [b], 0.0, b
    while x != a:
        x, w = back[x]
        path.append(x)
        total += w
    if any(len(adj[x]) > 2 for x in path[1:-1]):
        return None
    return total + sum(node_weights[x] for x in path)


def tree_ball(
    node_weights: list[float], edges: list[tuple[int, int, float]], grouped: set[int], phi: int, scale: float
) -> tuple[list[int], float, set[int]]:
    """The ball carved around the ungrouped node phi of a node-weighted tree:
    phi plus every ungrouped node whose tree path from phi runs only through
    ungrouped nodes, each strictly between the two at augmented depth < scale.
    Returns (sorted ball, deepest augmented depth in it, ids of the tree edges
    joining two ball nodes).  A node's depth sums, from phi outward, the
    node and edge weights of its path with both ends included."""
    adj: list[list[tuple[int, float]]] = [[] for _ in node_weights]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    parent: dict[int, int | None] = {phi: None}
    depth = {phi: node_weights[phi]}
    order = [phi]
    for x in order:
        for y, w in adj[x]:
            if y not in parent:
                parent[y] = x
                depth[y] = depth[x] + w + node_weights[y]
                order.append(y)
    ball = []
    for v in order:
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        if not grouped.intersection(path) and all(depth[x] < scale for x in path[1:-1]):
            ball.append(v)
    inside = set(ball)
    eids = {i for i, (u, v, _) in enumerate(edges) if u in inside and v in inside}
    return sorted(ball), max(depth[v] for v in ball), eids


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


def full_search_stretch(
    n: int,
    edges: list[tuple[int, int, float]],
    kept_ids: list[int],
    demand_ids: list[int] | None = None,
) -> tuple[float, int]:
    """(stretch, witness) by one complete textbook Dijkstra per demanded
    edge's lower endpoint: the worst d_H(u,v)/w(u,v), floored at 1, and the
    lowest edge id attaining it; (1.0, -1) without demands.  An unreachable
    endpoint gives an infinite ratio."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i in kept_ids:
        u, v, w = edges[i]
        adj[u].append((v, w))
        adj[v].append((u, w))
    searched: dict[int, list[float]] = {}
    best, witness = -INF, -1
    for eid in sorted(range(len(edges)) if demand_ids is None else demand_ids):
        u, v, w = edges[eid]
        src = min(u, v)
        if src not in searched:
            dist = [INF] * n
            dist[src] = 0.0
            heap = [(0.0, src)]
            while heap:
                d, x = heapq.heappop(heap)
                if d > dist[x]:
                    continue
                for y, wy in adj[x]:
                    if d + wy < dist[y]:
                        dist[y] = d + wy
                        heapq.heappush(heap, (d + wy, y))
            searched[src] = dist
        ratio = searched[src][max(u, v)] / w
        if ratio > best:
            best, witness = ratio, eid
    if witness < 0:
        return 1.0, -1
    return max(best, 1.0), witness


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


def classify_cells(
    weights: list[float], w_bar: float, eps: float, psi: float
) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Light ids and the (sigma, i) cell of every heavy id, one edge at a
    time: classes sigma < mu in increasing order, the first whose level
    window [L_i/(1+psi), L_i) holds the weight, else class mu.  The level is
    located as leveling._locate_level does, float for float."""

    def locate(w, base):
        i = max(1, math.floor(math.log(w / base) / math.log(1.0 / eps)) + 1)
        thr = base / eps**i
        while i > 1 and w < thr * eps:
            i -= 1
            thr = base / eps**i
        while w >= thr:
            i += 1
            thr = base / eps**i
        return i, w >= thr / (1.0 + psi)

    mu = max(1, math.ceil(math.log(1.0 / eps) / math.log(1.0 + psi)))
    pow_psi = [1.0]
    for _ in range(mu):
        pow_psi.append(pow_psi[-1] * (1.0 + psi))
    light, cells = [], {}
    for eid, w in enumerate(weights):
        if w <= w_bar / eps:
            light.append(eid)
            continue
        for sigma in range(1, mu + 1):
            i, ok = locate(w, w_bar * pow_psi[sigma])
            if ok or sigma == mu:
                cells[eid] = (sigma, i) if ok else None
                break
    return light, cells


def classify_cells_tiled(
    weights: list[float], w_bar: float, eps: float, psi: float
) -> tuple[list[int], dict[int, tuple[int, int] | None]]:
    """Light ids and the (sigma, i) cell of every heavy id (None if no cell
    holds it), one edge at a time under the tiled rule.

    With T(sigma, i) = w_bar (1+psi)^sigma / eps^i, computed as
    LevelSchedule.level_threshold computes it, cell (sigma, i) runs from
    T(sigma-1, i) up to T(sigma, i), or up to T(0, i+1) for class mu when
    mu > 1.  Classes are tried in increasing order; in each, the level is
    the smallest whose upper end lies above the weight, and the class holds
    the weight when it is not below that cell's lower end."""
    mu = max(1, math.ceil(math.log(1.0 / eps) / math.log(1.0 + psi)))

    def T(sigma, i):
        return w_bar * (1.0 + psi) ** sigma / eps**i

    def end(sigma, i):
        return T(0, i + 1) if sigma == mu > 1 else T(sigma, i)

    light, cells = [], {}
    for eid, w in enumerate(weights):
        if w <= T(0, 1):
            light.append(eid)
            continue
        cells[eid] = None
        for sigma in range(1, mu + 1):
            # a first guess from the logarithm, stepped until it is the
            # smallest level whose end lies above w
            i = max(1, math.floor(math.log(w / T(sigma, 0)) / math.log(1.0 / eps)))
            while i > 1 and w < end(sigma, i - 1):
                i -= 1
            while w >= end(sigma, i):
                i += 1
            if w >= T(sigma - 1, i):
                cells[eid] = (sigma, i)
                break
    return light, cells
