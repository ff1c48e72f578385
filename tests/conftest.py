import math
import random

from lightspan.graphs import WeightedGraph


def weighted_graph(n, m, seed, lo=1.0, hi=10.0, parallel=False):
    """Seeded connected graph, optionally with duplicate endpoint pairs."""
    rng = random.Random(seed)
    edges = []
    order = list(range(1, n))
    rng.shuffle(order)
    attached = [0]
    for v in order:
        u = rng.choice(attached)
        edges.append((u, v, rng.uniform(lo, hi)))
        attached.append(v)
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        if not parallel and any({u, v} == {a, b} for a, b, _ in edges):
            continue
        edges.append((u, v, rng.uniform(lo, hi)))
    return WeightedGraph(n, edges)


def point_graph(points, m, seed):
    """Seeded connected graph on the points; each edge weighs math.dist of its ends."""
    g = weighted_graph(len(points), m, seed)
    return WeightedGraph(g.n, [(u, v, math.dist(points[u], points[v])) for u, v, _ in g.edges])
