"""Exact verification: stretch measurement, a greedy baseline, trace checks.

Everything here is independent of the construction path.  Stretch is
measured with exact Dijkstra runs over the candidate subgraph (plain
Python, each search stopping once its source's demanded endpoints are
settled, or one A* search per demand when the caller supplies a distance
lower bound), the greedy baseline re-derives a spanner from scratch, and
check_hierarchy replays a recorded trace against the potential
bookkeeping rules.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .graphs import WeightedGraph, dijkstra


class NotSpanning(ValueError):
    """The candidate edge set fails to connect some demanded pair."""


def measure_stretch(
    g: WeightedGraph,
    h_edge_ids: list[int],
    edge_ids: list[int] | None = None,
    lower_bound: Callable[[int, int], float] | None = None,
) -> tuple[float, int]:
    """Max over demanded edges of d_H(u,v)/w(u,v), with its witness edge id.

    Demands default to every edge of g and are grouped under their lower
    endpoint.  Distances are exact Dijkstra runs over the subgraph spanned
    by h_edge_ids, one per distinct lower endpoint, each stopping once that
    source's demanded upper endpoints are settled; the witness is the lowest
    edge id attaining the maximum.

    With `lower_bound(v, t)`, a lower bound on the distance from v to t that
    holds in float arithmetic (see `dijkstra`'s `potential`), each demand
    gets its own A* search from its lower to its upper endpoint instead.
    The searches run in the same direction, so every distance, and with it
    the result, is bit for bit the same; they pay off when a source has few
    demanded endpoints, as in a sparse sample of pairs.
    """
    demands = list(range(g.m)) if edge_ids is None else sorted(edge_ids)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for i in h_edge_ids:
        u, v, w = g.edges[i]
        adj[u].append((v, w))
        adj[v].append((u, w))
    by_src: dict[int, list[int]] = {}
    for eid in demands:
        u, v, _ = g.edges[eid]
        by_src.setdefault(min(u, v), []).append(eid)
    best, witness = -math.inf, -1
    for src in sorted(by_src):
        eids = by_src[src]
        if lower_bound is None:
            dist = dijkstra(adj, src, targets={max(g.edges[eid][:2]) for eid in eids})
        for eid in eids:
            u, v, w = g.edges[eid]
            t = max(u, v)
            if lower_bound is not None:
                dist = dijkstra(adj, src, targets=(t,), potential=lambda x: lower_bound(x, t))
            d = dist[t]
            if math.isinf(d):
                raise NotSpanning(f"edge {eid} ({u},{v}): no path in the candidate subgraph")
            ratio = d / w
            if ratio > best or (ratio == best and eid < witness):
                best, witness = ratio, eid
    if witness < 0:
        return 1.0, -1
    return max(best, 1.0), witness


def greedy_spanner(g: WeightedGraph, t: float) -> list[int]:
    """Classic path-greedy t-spanner, the quality baseline.

    Edges in ascending (weight, id) order; an edge joins when the current
    spanner has no path of length <= t*w between its endpoints.  Dijkstra
    runs are truncated at the decision threshold.
    """
    if t < 1.0:
        raise ValueError(f"stretch must be >= 1, got {t}")
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    kept: list[int] = []
    for eid in sorted(range(g.m), key=lambda i: (g.edges[i][2], i)):
        u, v, w = g.edges[eid]
        limit = t * w
        dist = dijkstra(adj, u, cutoff=limit * (1.0 + 1e-12), targets={v})
        if dist[v] > limit:
            kept.append(eid)
            adj[u].append((v, w))
            adj[v].append((u, w))
    return sorted(kept)


# ---------------------------------------------------------------------------
# trace replay


@dataclass
class VerificationReport:
    checks: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def add(self, name: str, ok: bool, detail: dict | None = None) -> None:
        entry: dict = {"name": name, "passed": bool(ok)}
        if detail:
            entry["detail"] = detail
        self.checks.append(entry)

    def failures(self) -> list[dict]:
        return [c for c in self.checks if not c["passed"]]

    def to_json(self) -> str:
        return json.dumps({"passed": self.passed, "checks": self.checks}, indent=2)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _int_keys(d: dict) -> dict:
    # traces that went through JSON come back with string keys
    return {int(k): v for k, v in d.items()}

PREFIX_DIAMETER_CAP = 500


def check_hierarchy(trace: dict) -> VerificationReport:
    """Replay a recorded construction trace against the accounting rules.

    Checks, per weight class: the first level's potential total is at most
    the MST weight; each level's total potential drop equals the sum of the
    per-group drops; every corrected per-group drop is nonnegative up to
    rounding; and (on small instances) each cluster's induced diameter in
    the already-built edge set is bounded by its potential.
    """
    report = VerificationReport()
    per_sigma = _int_keys(trace["per_sigma"])
    mst_w = trace["mst_weight"]
    edges = [tuple(e) for e in trace["edges"]]
    n_ext = trace["n_extended"]

    for sigma in sorted(per_sigma):
        ledger = per_sigma[sigma]["ledger"]
        levels = per_sigma[sigma]["levels"]
        phi = ledger["phi_totals"]

        ok = phi[0] <= mst_w * (1.0 + 1e-9)
        report.add(
            f"phi1_le_mst[sigma={sigma}]",
            ok,
            None if ok else {"phi1": phi[0], "mst_weight": mst_w},
        )

        for j, (delta, locals_) in enumerate(zip(ledger["deltas"], ledger["local_changes"])):
            ok = _close(delta, sum(locals_), 1e-6)
            report.add(
                f"delta_identity[sigma={sigma},level={levels[j]['i']}]",
                ok,
                None if ok else {"delta_total": delta, "sum_local": sum(locals_)},
            )

        for j, corrected in enumerate(ledger["corrected_changes"]):
            scale = levels[j]["scale"]
            bad = [
                (x, c) for x, c in enumerate(corrected) if c < -1e-9 * scale
            ]
            report.add(
                f"corrected_drop_nonneg[sigma={sigma},level={levels[j]['i']}]",
                not bad,
                None if not bad else {"scale": scale, "violations": bad[:5]},
            )

        if n_ext <= PREFIX_DIAMETER_CAP:
            _check_prefix_diameter(report, trace, sigma, levels, edges, n_ext)
        else:
            report.add(
                f"prefix_diameter[sigma={sigma}]",
                True,
                {"skipped": f"extended vertex count {n_ext} above cap"},
            )
    return report


def _check_prefix_diameter(report, trace, sigma, levels, edges, n_ext) -> None:
    """Induced diameter of each cluster vs its potential, level by level.

    The edge set grows with the level: subdivided MST, light edges, then
    every edge kept at the class's earlier levels.
    """
    base: list[tuple[int, int, float]] = [tuple(e) for e in trace["sub_tree_edges"]]
    for eid in trace["light_ids"]:
        u, v, w = edges[eid]
        base.append((u, v, w))

    kept_before: list[int] = []
    for row in levels:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n_ext)]
        for u, v, w in base:
            adj[u].append((v, w))
            adj[v].append((u, w))
        for eid in kept_before:
            u, v, w = edges[eid]
            adj[u].append((v, w))
            adj[v].append((u, w))

        worst = None
        for cid, members in enumerate(row["members"]):
            phi = row["potentials"][cid]
            mem = set(members)
            sub: dict[int, list[tuple[int, float]]] = {m: [] for m in members}
            for m in members:
                for nb, w in adj[m]:
                    if nb in mem:
                        sub[m].append((nb, w))
            # diameter of the induced subgraph, exact
            order = sorted(mem)
            pos = {m: x for x, m in enumerate(order)}
            small: list[list[tuple[int, float]]] = [
                [(pos[nb], w) for nb, w in sub[m]] for m in order
            ]
            diam = 0.0
            for x in range(len(order)):
                dist = dijkstra(small, x)
                far = max(dist)
                if math.isinf(far):
                    diam = math.inf
                    break
                diam = max(diam, far)
            if diam > phi * (1.0 + 1e-9) + 1e-12:
                worst = {"cluster": cid, "diameter": diam, "phi": phi, "level": row["i"]}
                break
        report.add(
            f"prefix_diameter[sigma={sigma},level={row['i']}]",
            worst is None,
            worst,
        )
        kept_before.extend(row["h_i"])
