"""Core graph and point types, MST, subdivision and shortest paths."""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass

from .unionfind import UnionFind


class DisconnectedGraph(ValueError):
    """Raised when a connected graph is required but more than one component exists."""


class DegeneratePoints(ValueError):
    """Raised on duplicate points, a non-finite coordinate, an unusable
    dimension or a spread whose distances overflow."""


class FormatError(ValueError):
    """Malformed input text; carries a 1-based line number where one applies."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


def _check_weight(w: float, line_no: int | None = None) -> None:
    if not (w > 0.0) or math.isinf(w) or math.isnan(w):
        msg = f"edge weight must be a positive finite float, got {w!r}"
        if line_no is not None:
            raise FormatError(line_no, msg)
        raise ValueError(msg)


@dataclass
class WeightedGraph:
    """Undirected graph with positive 64-bit float edge weights.

    Edges are (u, v, w) triples; edge ids are positions in `edges`.
    Parallel edges are tolerated on ingest and removed by `dedup_parallel`.
    """

    n: int
    edges: list[tuple[int, int, float]]

    @property
    def m(self) -> int:
        return len(self.edges)

    def weighted_adjacency(self) -> list[list[tuple[int, float]]]:
        """Per-vertex (neighbor, weight) lists."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def validate(self) -> None:
        for i, (u, v, w) in enumerate(self.edges):
            if u == v:
                raise ValueError(f"edge {i}: self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {i}: vertex id out of range")
            _check_weight(w)


@dataclass
class PointSet:
    """n distinct points in R^d, one coordinate tuple per point."""

    d: int
    points: list[tuple[float, ...]]

    @property
    def n(self) -> int:
        return len(self.points)

    def validate(self) -> None:
        if self.d < 1:
            raise DegeneratePoints(f"dimension must be >= 1, got {self.d}")
        seen = set()
        for i, p in enumerate(self.points):
            if len(p) != self.d:
                raise DegeneratePoints(f"point {i} has {len(p)} coordinates, expected {self.d}")
            if not all(map(math.isfinite, p)):
                raise DegeneratePoints(f"point {i} has a non-finite coordinate: {p}")
            if p in seen:
                raise DegeneratePoints(f"duplicate point at index {i}: {p}")
            seen.add(p)
        # no distance exceeds the bounding box's diagonal
        lo = [min(c) for c in zip(*self.points)]
        hi = [max(c) for c in zip(*self.points)]
        if not math.isfinite(math.dist(lo, hi)):
            raise DegeneratePoints(f"point distances overflow a float: the bounding box spans {lo} to {hi}")

    def distance(self, i: int, j: int) -> float:
        return math.dist(self.points[i], self.points[j])


# ---------------------------------------------------------------------------
# text formats: graphs are "n m" then m lines "u v w"; points are "n d" then
# n coordinate lines; '#' starts a comment line; ids are 0-based


def _data_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield no, line


def _read_header(lines, kind: str, second: str) -> tuple[int, int, int]:
    """(line number, n, second field) of a graph ("n m") or point ("n d") header, n >= 1."""
    try:
        no, header = next(lines)
    except StopIteration:
        raise FormatError(1, f"empty {kind} file") from None
    parts = header.split()
    if len(parts) != 2:
        raise FormatError(no, f"expected header 'n {second}', got {header!r}")
    try:
        n, x = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(no, f"non-integer header fields in {header!r}") from None
    if n <= 0:
        raise FormatError(no, f"invalid sizes n={n} {second}={x}")
    return no, n, x


def parse_graph(text: str) -> WeightedGraph:
    lines = _data_lines(text)
    no, n, m = _read_header(lines, "graph", "m")
    if m < 0:
        raise FormatError(no, f"invalid sizes n={n} m={m}")
    edges: list[tuple[int, int, float]] = []
    for no, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(no, f"expected 'u v w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise FormatError(no, f"could not parse edge line {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(no, f"vertex id out of range in {line!r}")
        if u == v:
            raise FormatError(no, f"self-loop at vertex {u}")
        _check_weight(w, no)
        edges.append((u, v, w))
    if len(edges) != m:
        raise FormatError(no if edges else 1, f"header promised {m} edges, found {len(edges)}")
    return WeightedGraph(n, edges)


def format_graph(g: WeightedGraph) -> str:
    out = [f"{g.n} {g.m}"]
    for u, v, w in g.edges:
        out.append(f"{u} {v} {w!r}")
    return "\n".join(out) + "\n"


def parse_points(text: str) -> PointSet:
    lines = _data_lines(text)
    _, n, d = _read_header(lines, "point", "d")
    points: list[tuple[float, ...]] = []
    for no, line in lines:
        parts = line.split()
        if len(parts) != d:
            raise FormatError(no, f"expected {d} coordinates, got {len(parts)}")
        try:
            points.append(tuple(float(x) for x in parts))
        except ValueError:
            raise FormatError(no, f"could not parse coordinates {line!r}") from None
    if len(points) != n:
        raise FormatError(no if points else 1, f"header promised {n} points, found {len(points)}")
    ps = PointSet(d, points)
    ps.validate()
    return ps


def format_points(ps: PointSet) -> str:
    out = [f"{ps.n} {ps.d}"]
    for p in ps.points:
        out.append(" ".join(repr(x) for x in p))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# normalization and cleanup before the pipeline


def lightest_per_pair(edges: Iterable[tuple[int, int, float, int]]) -> Iterable[tuple[float, int, int, int]]:
    """The lightest of each unordered pair's (a, b, w, src) edges, ties to the
    lower src, as (w, src, a, b) in order of the pair's first edge.

    Edges with a == b are skipped.
    """
    best: dict[tuple[int, int], tuple[float, int, int, int]] = {}
    for a, b, w, src in edges:
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        prev = best.get(key)
        if prev is None or (w, src) < prev[:2]:
            best[key] = (w, src, a, b)
    return best.values()


def dedup_parallel(g: WeightedGraph) -> WeightedGraph:
    """Keep the minimum-weight edge per vertex pair (ties by first occurrence)."""
    edges = g.edges
    keep = sorted(i for _, i, _, _ in lightest_per_pair((u, v, w, i) for i, (u, v, w) in enumerate(edges)))
    return WeightedGraph(g.n, [edges[i] for i in keep])


def normalize(g: WeightedGraph) -> tuple[WeightedGraph, float]:
    """Scale weights so the minimum is exactly 1; returns (graph, scale factor).

    Raises ValueError when the max/min weight ratio overflows a float.
    """
    if not g.edges:
        return g, 1.0
    scale = min(w for _, _, w in g.edges)
    top = max(w for _, _, w in g.edges)
    if math.isinf(top / scale):
        raise ValueError(f"max/min edge weight ratio exceeds the float range ({top!r} / {scale!r})")
    edges = [(u, v, w / scale) for u, v, w in g.edges]
    return WeightedGraph(g.n, edges), scale


# ---------------------------------------------------------------------------
# MST (Kruskal over UnionFind)


def build_mst(g: WeightedGraph) -> list[int]:
    """Edge ids of the minimum spanning tree; ties broken by (weight, u, v).

    Raises DisconnectedGraph when g has more than one component, before any
    per-vertex allocation when g has fewer than n - 1 edges.
    """
    if g.m < g.n - 1:
        raise DisconnectedGraph(f"graph has more than one component ({g.n} vertices, {g.m} edges)")
    order = sorted(range(g.m), key=lambda i: (g.edges[i][2], min(g.edges[i][:2]), max(g.edges[i][:2])))
    uf = UnionFind(g.n)
    tree: list[int] = []
    for i in order:
        u, v, _ = g.edges[i]
        if uf.union(u, v):
            tree.append(i)
            if len(tree) == g.n - 1:
                break
    if len(tree) != g.n - 1:
        raise DisconnectedGraph(f"graph has more than one component ({g.n} vertices, tree size {len(tree)})")
    return tree


def mst_weight(g: WeightedGraph, mst_ids: list[int], scale: float = 1.0) -> float:
    """Total weight of the MST edges mst_ids; ValueError when it overflows a
    float once multiplied by `scale`, the factor normalize divided out."""
    total = sum(g.edges[i][2] for i in mst_ids)
    if not math.isfinite(total * scale):
        raise ValueError(
            f"MST weight overflows a float: {len(mst_ids)} edges sum to {total * scale}"
        )
    return total


def indexed_adjacency(n: int, edges) -> list[list[tuple[int, float, int]]]:
    """Per-vertex (neighbor, weight, edge index) lists of (a, b, w, ...) edges,
    both directions of each edge appended in edge order."""
    adj: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
    for i, (a, b, w, *_) in enumerate(edges):
        adj[a].append((b, w, i))
        adj[b].append((a, w, i))
    return adj


# ---------------------------------------------------------------------------
# MST subdivision into pieces of weight at most w_bar


@dataclass
class SubdividedMst:
    """MST with every edge heavier than w_bar split into equal pieces, rooted at 0.

    Virtual vertices get ids n_original, n_original+1, ... in edge order.
    adj lists (neighbor, weight, id in tree_edges) per vertex in id order;
    order is the DFS discovery order from 0 and parent[0] == 0, and
    parent_edge holds the id of each vertex's edge to its parent (-1 at 0).
    Every weight class is clustered over this one tree, so it is built once
    and only read.
    """

    n_original: int
    w_bar: float
    tree_edges: list[tuple[int, int, float]]
    adj: list[list[tuple[int, float, int]]]
    parent: list[int]
    order: list[int]
    parent_edge: list[int]

    @property
    def extended_vertex_count(self) -> int:
        return len(self.adj)


# Most vertices a subdivided MST may have.  A build holds about 630-660 bytes
# of peak RSS per subdivided vertex (CPython 3.11, 64-bit: a 2-vertex graph
# cut into 0.5M and 2M pieces), so this caps that part near 0.65 GB.  Strict
# general n=200, m=800 needs about 248k vertices.
SUBDIVISION_VERTEX_BUDGET = 1_000_000


def subdivide_mst(g: WeightedGraph, mst_edge_ids: list[int], w_bar: float) -> SubdividedMst:
    """Split each MST edge of weight > w_bar into ceil(w/w_bar) equal pieces; root at 0.

    Raises ValueError, before allocating the tree, when the subdivided tree
    would have more than SUBDIVISION_VERTEX_BUDGET vertices.
    """
    if not (w_bar > 0):
        raise ValueError(f"w_bar must be positive, got {w_bar}")
    counts: list[int] = []
    for i in mst_edge_ids:
        w = g.edges[i][2]
        if w <= w_bar:
            pieces = 1
        else:
            # capped so that an overflowing w / w_bar still counts; a capped
            # edge alone exceeds the budget
            pieces = math.ceil(min(w / w_bar, SUBDIVISION_VERTEX_BUDGET + 1))
            # float ceil can land one short when w/w_bar is just above an integer
            if w / pieces > w_bar:
                pieces += 1
        counts.append(pieces)
    if g.n + sum(counts) - len(counts) > SUBDIVISION_VERTEX_BUDGET:
        raise ValueError(
            f"the subdivided MST would have more than {SUBDIVISION_VERTEX_BUDGET} vertices "
            f"(pieces of weight {w_bar!r}); use a larger epsilon"
        )
    tree_edges: list[tuple[int, int, float]] = []
    next_id = g.n
    for i, pieces in zip(mst_edge_ids, counts):
        u, v, w = g.edges[i]
        sub_w = w / pieces
        prev = u
        for x in range(next_id, next_id + pieces - 1):
            tree_edges.append((prev, x, sub_w))
            prev = x
        next_id += pieces - 1
        tree_edges.append((prev, v, sub_w))

    adj = indexed_adjacency(next_id, tree_edges)
    parent = [-1] * next_id
    parent[0] = 0
    parent_edge = [-1] * next_id
    order = [0]
    stack = [0]
    while stack:
        v = stack.pop()
        for u, _, eid in adj[v]:
            if parent[u] == -1:
                parent[u] = v
                parent_edge[u] = eid
                order.append(u)
                stack.append(u)
    if len(order) != next_id:
        raise ValueError("subdivided MST is not connected")
    return SubdividedMst(g.n, w_bar, tree_edges, adj, parent, order, parent_edge)


# ---------------------------------------------------------------------------
# shortest paths


def dijkstra(
    adj: list[list[tuple[int, float]]],
    source: int,
    cutoff: float | None = None,
    targets: Collection[int] | None = None,
    potential: Callable[[int], float] | None = None,
) -> list[float]:
    """Exact nonnegative shortest paths from source; unreachable = inf.

    `adj` is a per-vertex (neighbor, weight) list.  With `cutoff`, vertices
    beyond it stay at inf.  With `targets`, the search stops as soon as every
    target has been settled: each target's distance is then exact, bit for
    bit what the full search gives, while vertices not yet settled hold a
    tentative value or inf.  A target the search cannot reach stays at inf.

    `potential(v)` turns the search into A* towards a single target: the
    heap orders vertices by d + potential(v) in place of d, and a vertex
    whose distance improves after it was settled is searched again.  It
    must be a lower bound that holds in float arithmetic: for every path
    from source to the target through v whose part up to v sums to d,
    d + potential(v) may not exceed the path's float sum.  Then no vertex
    of a shortest path is left in the heap behind the target, so the
    target's distance is the least float path sum, bit for bit the plain
    search's, ties included.  It needs exactly one target and no cutoff.
    """
    n = len(adj)
    dist = [math.inf] * n
    dist[source] = 0.0
    pending = None if targets is None else set(targets)
    if potential is not None and (cutoff is not None or pending is None or len(pending) != 1):
        raise ValueError("a potential needs exactly one target and no cutoff")
    if pending is not None and not pending:
        return dist
    # items are (key, distance, vertex); without a potential the key is the
    # distance, so the heap orders them as plain (distance, vertex) pairs
    heap = [(0.0, 0.0, source)]
    while heap:
        _, d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if cutoff is not None and d > cutoff:
            break
        if pending is not None and u in pending:
            pending.remove(u)
            if not pending:
                break
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                if cutoff is not None and nd > cutoff:
                    continue
                dist[v] = nd
                heapq.heappush(heap, (nd if potential is None else nd + potential(v), nd, v))
    return dist
