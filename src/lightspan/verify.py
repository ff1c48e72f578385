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
from operator import itemgetter

from .graphs import FormatError, WeightedGraph, dijkstra


class NotSpanning(ValueError):
    """The candidate edge set fails to connect some demanded pair."""


# Largest distance, in units of the subgraph's least edge weight, that a
# steered search keeps without searching again; see _steered_distance.
STEERED_LIMIT = 2.0**20
# relative shrink that keeps a backward distance below forward float sums
_SHRINK = 1 - 1e-9


def _steered_distance(adj, source: int, target: int, cutoff: float, limit: float) -> float:
    """Distance from source to target: a forward A* steered from the target.

    A backward search from the target, stopped at `cutoff`, gives each
    vertex it settles a distance to the target; every other vertex is
    farther than `cutoff`.  Shrunk by a relative 1e-9, these make the
    forward search's potential.  The forward search sets the bits, so its
    result is the plain search's when the potential stays below the float
    sum of a shortest path's remaining part, which `dijkstra` requires.

    Why it does, along a shortest path of j edges left after a vertex
    reached at d: both that part's forward float sum and its backward sum
    (which bounds the backward distance) are within about j ulps of the
    path's length D from its exact remaining length r.  So the potential
    is low enough once 1e-9 r exceeds about 2j ulps of D.  Every edge
    weighs at least H's least weight w_min, so r >= j w_min, and that
    holds whenever D <= 2**20 w_min, with room to spare.  The forward
    search reports D >= the true distance; so a reported D <= `limit` =
    2**20 w_min is exact, and any larger D is searched again without a
    potential.  Graphs from `normalize` have w_min = 1, so the limit is
    about 1.05e6 there; the cutoff only sets the cost.
    """
    back = dijkstra(adj, target, cutoff=cutoff)
    beyond = cutoff * _SHRINK
    potential = [beyond if b == math.inf else b * _SHRINK for b in back]
    d = dijkstra(adj, source, targets=(target,), potential=potential.__getitem__)[target]
    if d > limit:
        d = dijkstra(adj, source, targets=(target,))[target]
    return d


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

    A sample of demands (`edge_ids` given) mostly has one demanded endpoint
    t per source.  Such a source gets a search steered from t
    (`_steered_distance`): a backward search from t up to c = w/2 times
    the largest ratio so far (at least 1), then a forward A* whose
    potential is that backward distance, shrunk by a relative 1e-9, or c
    shrunk alike where the backward search stopped.

    With `lower_bound(v, t)`, a lower bound on the distance from v to t that
    holds in float arithmetic (see `dijkstra`'s `potential`), each demand
    gets its own A* search from its lower to its upper endpoint instead.

    Every search runs from the lower endpoint and yields the plain search's
    distance bit for bit, so the result does not depend on which is used.
    """
    demands = list(range(g.m)) if edge_ids is None else sorted(edge_ids)
    h_edges = [g.edges[i] for i in h_edge_ids]
    adj = WeightedGraph(g.n, h_edges).weighted_adjacency()
    limit = STEERED_LIMIT * min(map(itemgetter(2), h_edges), default=0.0)
    by_src: dict[int, list[int]] = {}
    for eid in demands:
        u, v, _ = g.edges[eid]
        by_src.setdefault(min(u, v), []).append(eid)
    best, witness = -math.inf, -1
    for src in sorted(by_src):
        eids = by_src[src]
        ends = {max(g.edges[eid][:2]) for eid in eids}
        if lower_bound is None:
            if edge_ids is not None and len(ends) == 1:
                (t,) = ends
                cutoff = g.edges[eids[0]][2] / 2 * max(1.0, best)
                dist = {t: _steered_distance(adj, src, t, cutoff, limit)}
            else:
                dist = dijkstra(adj, src, targets=ends)
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
    spanner has no path of length <= t*w between its endpoints, or none at
    all (t*w may overflow to inf).  Dijkstra runs are truncated at the
    decision threshold.
    """
    if not (1.0 <= t < math.inf):
        raise ValueError(f"stretch must be a finite float >= 1, got {t}")
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    kept: list[int] = []
    for eid in sorted(range(g.m), key=lambda i: (g.edges[i][2], i)):
        u, v, w = g.edges[eid]
        limit = t * w
        dist = dijkstra(adj, u, cutoff=limit * (1.0 + 1e-12), targets={v})
        if dist[v] > limit or dist[v] == math.inf:
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


# top-level fields of a trace that check_hierarchy reads
TRACE_FIELDS = ("per_sigma", "mst_weight", "edges", "n_extended", "sub_tree_edges", "light_ids")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_index(x, bound: int) -> bool:
    return _is_int(x) and 0 <= x < bound


def _list_of(item) -> Callable[[object], bool]:
    return lambda xs: isinstance(xs, (list, tuple)) and all(item(x) for x in xs)


def _check_trace_shape(trace: dict) -> None:
    """Raise FormatError naming the first field that check_hierarchy could
    not read: a wrong type, a missing final_phi or level entry, a vertex or
    edge id out of range, or a level whose members do not partition the
    extended vertices."""

    def need(ok: bool, field: str, what: str) -> None:
        if not ok:
            raise FormatError(None, f"trace field {field} must be {what}")

    n_ext = trace["n_extended"]
    need(_is_int(n_ext) and n_ext >= 0, "n_extended", "a nonnegative integer")
    need(_is_number(trace["mst_weight"]), "mst_weight", "a number")
    edge = _list_of(lambda e: isinstance(e, (list, tuple)) and len(e) == 3
                    and _is_index(e[0], n_ext) and _is_index(e[1], n_ext) and _is_number(e[2]))
    for name in ("edges", "sub_tree_edges"):
        need(edge(trace[name]), name, "a list of [u, v, w] with u, v below n_extended")
    m = len(trace["edges"])
    edge_ids = _list_of(lambda x: _is_index(x, m))
    need(edge_ids(trace["light_ids"]), "light_ids", "a list of ids of edges")
    numbers = _list_of(_is_number)
    per_sigma = trace["per_sigma"]
    need(isinstance(per_sigma, dict), "per_sigma", "an object keyed by weight class")
    for sigma, cls in per_sigma.items():
        field = f"per_sigma.{sigma}"
        need(str(sigma).lstrip("-").isdigit(), field, "keyed by an integer")
        need(isinstance(cls, dict) and _is_number(cls.get("final_phi"))
             and isinstance(cls.get("levels"), list), field, "an object with final_phi and levels")
        for j, row in enumerate(cls["levels"]):
            here = f"{field}.levels.{j}"
            need(isinstance(row, dict), here, "an object")
            need(_is_int(row.get("i")), f"{here}.i", "an integer")
            need(_is_number(row.get("scale")), f"{here}.scale", "a number")
            members = row.get("members")
            need(_list_of(_list_of(_is_int))(members) and sum(map(len, members)) == n_ext
                 and sorted(v for ms in members for v in ms) == list(range(n_ext)),
                 f"{here}.members", "a partition of the extended vertices into lists")
            need(numbers(row.get("potentials")) and len(row["potentials"]) >= len(row["members"]),
                 f"{here}.potentials", "a number per member list")
            need(edge_ids(row.get("h_i")), f"{here}.h_i", "a list of ids of edges")
            for name in ("local_change", "corrected_change"):
                need(numbers(row.get(name)), f"{here}.{name}", "a list of numbers")


def check_hierarchy(trace: dict) -> VerificationReport:
    """Replay a recorded construction trace against the accounting rules.

    Checks, per weight class, on the ledger derived from its rows (a level's
    total is the sum of its potentials; final_phi follows the last level):
    the first level's total is at most the MST weight; each level's drop to
    the next total equals the sum of its local_change; every corrected_change
    entry is nonnegative up to rounding; and each cluster's induced diameter
    in the already-built edge set is bounded by its potential.  A trace that
    is not an object, lacks a field of TRACE_FIELDS or holds a field of the
    wrong shape raises FormatError.
    """
    if not isinstance(trace, dict):
        raise FormatError(None, f"trace must be a JSON object, got {type(trace).__name__}")
    missing = [key for key in TRACE_FIELDS if key not in trace]
    if missing:
        raise FormatError(None, f"trace is missing {', '.join(missing)}")
    _check_trace_shape(trace)
    report = VerificationReport()
    per_sigma = _int_keys(trace["per_sigma"])
    mst_w = trace["mst_weight"]
    edges = [tuple(e) for e in trace["edges"]]
    n_ext = trace["n_extended"]

    for sigma in sorted(per_sigma):
        levels = per_sigma[sigma]["levels"]
        phi = [sum(row["potentials"]) for row in levels] + [per_sigma[sigma]["final_phi"]]

        ok = phi[0] <= mst_w * (1.0 + 1e-9)
        report.add(
            f"phi1_le_mst[sigma={sigma}]",
            ok,
            None if ok else {"phi1": phi[0], "mst_weight": mst_w},
        )

        for row, before, after in zip(levels, phi, phi[1:]):
            delta, sum_local = before - after, sum(row["local_change"])
            ok = _close(delta, sum_local, 1e-6)
            report.add(
                f"delta_identity[sigma={sigma},level={row['i']}]",
                ok,
                None if ok else {"delta_total": delta, "sum_local": sum_local},
            )

        for row in levels:
            scale = row["scale"]
            bad = [
                (x, c) for x, c in enumerate(row["corrected_change"]) if c < -1e-9 * scale
            ]
            report.add(
                f"corrected_drop_nonneg[sigma={sigma},level={row['i']}]",
                not bad,
                None if not bad else {"scale": scale, "violations": bad[:5]},
            )

        _check_prefix_diameter(report, trace, sigma, levels, edges, n_ext)
    return report


def _check_prefix_diameter(report, trace, sigma, levels, edges, n_ext) -> None:
    """Induced diameter of each cluster vs its potential, level by level.

    The edge set grows with the level: subdivided MST, light edges, then
    every edge kept at the class's earlier levels.  A level's members
    partition the extended vertices, so one pass over the built edges
    gives every cluster its induced subgraph, each vertex numbered by its
    position in its cluster's member list.  Each diameter is exact: one
    Dijkstra run per member.
    """
    built = [tuple(e) for e in trace["sub_tree_edges"]]
    built += [edges[eid] for eid in trace["light_ids"]]
    owner = [0] * n_ext
    pos = [0] * n_ext
    for row in levels:
        for cid, members in enumerate(row["members"]):
            for x, v in enumerate(members):
                owner[v] = cid
                pos[v] = x
        subs = [[[] for _ in members] for members in row["members"]]
        for u, v, w in built:
            if owner[u] == owner[v]:
                sub = subs[owner[u]]
                sub[pos[u]].append((pos[v], w))
                sub[pos[v]].append((pos[u], w))

        worst = None
        for cid, sub in enumerate(subs):
            diam = 0.0
            for x in range(len(sub)):
                diam = max(diam, *dijkstra(sub, x))
                if math.isinf(diam):
                    break
            phi = row["potentials"][cid]
            if diam > phi * (1.0 + 1e-9) + 1e-12:
                worst = {"cluster": cid, "diameter": diam, "phi": phi, "level": row["i"]}
                break
        report.add(f"prefix_diameter[sigma={sigma},level={row['i']}]", worst is None, worst)
        built += [edges[eid] for eid in row["h_i"]]
