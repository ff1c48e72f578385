"""Output check and output digest for one build.

The check re-derives what it needs with scipy and never calls
lightspan.verify or the pipeline's own stretch code, so a change that
weakens the program's certification cannot weaken this check with it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, minimum_spanning_tree

STRETCH_SAMPLE = 100  # run-graph edges outside the spanner re-measured per build
STRETCH_SOURCES = 100  # geometric modes: points whose point pairs are re-measured per build
REL_TOL = 1e-9


def _matrix(n: int, edges) -> csr_matrix:
    if not edges:
        return csr_matrix((n, n))
    u, v, w = (np.asarray(col) for col in zip(*edges))
    return csr_matrix((np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n))


def run_graph_of(workload, instance, res) -> tuple[object, list[str]]:
    """The graph the kept ids index into, taken from the input where possible.

    General mode runs on the input graph itself, so ids are checked against
    the input.  Geometric modes run on a base graph the program builds; its
    weights must be the point distances.
    """
    rg = res.run_graph
    if workload.mode == "general":
        same = rg.n == instance.n and [e[:2] for e in rg.edges] == [e[:2] for e in instance.edges]
        return instance, [] if same else ["run graph is not the input graph"]
    pts = instance.points
    bad = sum(
        1 for u, v, w in rg.edges if not math.isclose(w, math.dist(pts[u], pts[v]), rel_tol=REL_TOL)
    )
    return rg, [f"{bad} base edges weigh other than their point distance"] if bad else []


def check_output(workload, instance, res, seed: int) -> list[str]:
    """Problems found in one build's output; empty when it passes."""
    g, problems = run_graph_of(workload, instance, res)
    ids = list(res.edge_ids)
    kept = set(ids)
    if len(kept) != len(ids):
        problems.append("kept edge ids are not unique")
    if any(not (0 <= i < g.m) for i in ids):
        problems.append("kept edge id out of range")
        return problems
    kept_edges = [g.edges[i] for i in ids]

    n_run, _ = connected_components(_matrix(g.n, g.edges), directed=False)
    n_kept, _ = connected_components(_matrix(g.n, kept_edges), directed=False)
    if n_kept != n_run:
        problems.append(f"kept edges leave {n_kept} components, run graph has {n_run}")

    stats = res.stats
    target = stats["stretch_target"]
    if not stats["stretch_measured"] <= target:
        problems.append(f"stretch_measured {stats['stretch_measured']} above target {target}")

    mst_w = minimum_spanning_tree(_matrix(g.n, g.edges)).sum()
    lightness = sum(w for _, _, w in kept_edges) / mst_w
    if not math.isclose(lightness, stats["lightness"], rel_tol=1e-6):
        problems.append(f"stats lightness {stats['lightness']} but kept/MST weight is {lightness}")

    if n_kept != n_run:
        return problems
    h = _matrix(g.n, kept_edges)
    # geometric modes: the hierarchy answers for target / (1 + eps_base)
    # against the base graph, and the base for the (1 + eps_base) on top
    edge_target = target if workload.mode == "general" else target / (1.0 + stats["eps_base"])
    worst = remeasure_edges(g, h, [i for i in range(g.m) if i not in kept], seed)
    if worst > edge_target * (1.0 + REL_TOL):
        problems.append(f"re-measured edge stretch {worst} above {edge_target}")
    if workload.mode != "general":
        worst = remeasure_point_pairs(workload, instance, h, seed)
        if worst > target * (1.0 + REL_TOL):
            problems.append(f"re-measured point-pair stretch {worst} above target {target}")
    return problems


def remeasure_edges(g, h: csr_matrix, outside: list[int], seed: int) -> float:
    """Max d_H(u,v)/w(u,v) over a seeded sample of run-graph edges outside the spanner."""
    sample = random.Random(seed).sample(outside, min(STRETCH_SAMPLE, len(outside)))
    if not sample:
        return 1.0
    src = sorted({g.edges[i][0] for i in sample})
    row = {s: r for r, s in enumerate(src)}
    dist = dijkstra(h, directed=False, indices=src)
    return max(max(float(dist[row[u], v]) / w for u, v, w in (g.edges[i] for i in sample)), 1.0)


def stretch_sources(n: int, seed: int) -> list[int]:
    """The seeded sample of points whose pairs remeasure_point_pairs measures."""
    return sorted(random.Random(seed).sample(range(n), min(STRETCH_SOURCES, n)))


def remeasure_point_pairs(workload, points, h: csr_matrix, seed: int) -> float:
    """Max d_H(u,v)/|uv| over the point pairs of a seeded sample of points.

    A pair is a sampled point and any other point in euclidean mode, or any
    other point within the radius in udg mode.  This is measured against the
    points themselves, so a base graph that misses pairs cannot hide it.
    """
    xy = np.asarray(points.points, dtype=float)
    src = stretch_sources(len(xy), seed)
    d_h = dijkstra(h, directed=False, indices=src)
    d_pts = np.sqrt(((xy[src, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    pairs = d_pts > 0
    if workload.mode == "udg":
        pairs &= d_pts <= workload.radius
    return max(float((d_h[pairs] / d_pts[pairs]).max(initial=1.0)), 1.0)


def digest(res) -> str:
    """sha256 over the sorted kept ids and the stats without timings."""
    stats = {k: v for k, v in res.stats.items() if k != "timings_ms"}
    blob = json.dumps({"edge_ids": sorted(res.edge_ids), "stats": stats}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
