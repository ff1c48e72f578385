"""End-to-end spanner drivers.

One run: normalize, MST, light/heavy split, then per weight class a
hierarchy of contracted levels where each level groups clusters, keeps the
class edges selected by build_hi, and contracts.  The union of the MST,
the light edges and every class's kept edges is the spanner.  Entry points
exist for general weighted graphs, Euclidean point sets, unit-disk graphs
and minor-free graphs; they differ in the sparse-spanner backend and in
the metric the result is certified against.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import time
from dataclasses import dataclass

from .clustering import cluster_level
from .graphs import (
    PointSet,
    WeightedGraph,
    build_mst,
    dedup_parallel,
    normalize,
    subdivide_mst,
)
from .hierarchy import POTENTIAL_RATIO, build_cluster_graph, build_level1, contract_level
from .leveling import classify_edges
from .ssa import DEFAULT_BETA, SsaInput, cone_selector, s_general, s_geom, ssa_general, ssa_geom, ssa_minor

# bench/tracing.py times sampled certification through a hook on
# pipeline.batched_stretch, so measure_stretch keeps that name as an alias
from .verify import measure_stretch as batched_stretch

S_GENERAL = s_general(DEFAULT_BETA)
S_GEOM = s_geom(DEFAULT_BETA)
S_MINOR = 0.0
STRICT_EPS_CAP = 1.0 / 256.0


def stretch_rho(s_ssa: float) -> float:
    """Constant multiplying eps in the per-level stretch guarantee."""
    return max(s_ssa + 4.0 * POTENTIAL_RATIO, 10.0 * POTENTIAL_RATIO)


RHO_GENERAL = stretch_rho(S_GENERAL)
RHO_GEOM = stretch_rho(S_GEOM)
RHO_MINOR = stretch_rho(S_MINOR)


@dataclass
class PipelineConfig:
    mode: str = "general"  # general | euclidean | udg | minor
    k: int = 2
    radius: float = 1.0
    eps_user: float = 0.25
    eps_internal: float | None = None
    psi: float | None = None
    seed: int = 0
    strict: bool = False
    trace: bool = False
    verify_cap: int = 500
    sample_size: int = 1000

    def validate(self) -> None:
        if self.mode not in ("general", "euclidean", "udg", "minor"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "general" and self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.mode == "udg" and not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not (0.0 < self.eps() < 1.0):
            raise ValueError(f"internal eps must be in (0,1), got {self.eps()}")

    def s_ssa(self) -> float:
        return {"general": S_GENERAL, "euclidean": S_GEOM, "udg": S_GEOM, "minor": S_MINOR}[
            self.mode
        ]

    def rho(self) -> float:
        return stretch_rho(self.s_ssa())

    def eps(self) -> float:
        if self.eps_internal is not None:
            return self.eps_internal
        if self.strict:
            return min(self.eps_user / self.rho(), STRICT_EPS_CAP)
        return self.eps_user

    def psi_value(self) -> float:
        return self.psi if self.psi is not None else self.eps()

    def t(self) -> float:
        return 2.0 * self.k - 1.0 if self.mode == "general" else 1.0 + self.eps()

    def eps_base(self) -> float:
        # cone-graph opening for the geometric base; capped so the base
        # spanner stays reasonable even for coarse eps_user
        return min(self.eps_user, 0.125)

    def stretch_target(self) -> float:
        # hierarchy certifies t(1 + rho*eps) against the run graph; geometric
        # modes pay the base graph's (1 + eps_base) on top
        target = self.t() * (1.0 + self.rho() * self.eps())
        if self.mode in ("euclidean", "udg"):
            target *= 1.0 + self.eps_base()
        return target


@dataclass
class SpannerResult:
    edges: list[tuple[int, int, float]]  # de-normalized spanner edges
    edge_ids: list[int]  # ids into the graph the transformation ran on
    run_graph: WeightedGraph  # that graph (input, or the geometric base)
    stats: dict
    trace: dict | None = None


# ---------------------------------------------------------------------------
# per-level edge selection


def build_hi(cg, outcome, backend, cfg: PipelineConfig, ssa_clock: list[float]) -> set[int]:
    """Source edge ids kept at one level.

    Three sources: class edges inside grouped subgraphs, every class edge
    touching a non-heavy node, and the backend's pruning of the heavy-heavy
    remainder.
    """
    kept: set[int] = set()
    inside: set[int] = set()
    for eids in outcome.class_eids:
        for cid in eids:
            inside.add(cid)
            kept.add(cg.class_edges[cid][3])
    kind = outcome.node_kind
    high_pairs: list[tuple[int, int, float, int]] = []
    for cid, (a, b, w, src) in enumerate(cg.class_edges):
        if cid in inside:
            continue
        if kind[a] == "high" and kind[b] == "high":
            high_pairs.append((a, b, w, src))
        else:
            kept.add(src)
    if high_pairs:
        nodes = sorted({v for a, b, _, _ in high_pairs for v in (a, b)})
        inp = SsaInput(
            nodes=nodes,
            edges=high_pairs,
            level_scale=cg.level_scale / (1.0 + cfg.psi_value()),
            eps=cfg.eps(),
            beta=DEFAULT_BETA,
            psi=cfg.psi_value(),
            gamma=cfg.rho(),
            reps={v: cg.node_source[v] for v in nodes},
            strict=cfg.strict,
        )
        inp.validate()
        t0 = time.perf_counter()
        out = backend(inp)
        ssa_clock[0] += time.perf_counter() - t0
        for idx in out.pruned:
            kept.add(high_pairs[idx][3])
    return kept


# ---------------------------------------------------------------------------
# per-class hierarchy


def _class_spanner(g, sub, schedule, sigma, cfg, backend, ssa_clock, level_rows, trace_sigma):
    cells = {i: ids for i, ids in schedule.per_sigma[sigma].items() if ids}
    if not cells:
        return set()
    max_i = max(cells)
    trace_levels = None if trace_sigma is None else trace_sigma["levels"]
    lvl = build_level1(sub, schedule.level_threshold(sigma, 0))
    kept: set[int] = set()
    rows_here: list[dict] = []
    for i in range(1, max_i + 1):
        li = schedule.level_threshold(sigma, i)
        cg = build_cluster_graph(
            lvl, cells.get(i, []), g, cfg.t(), cfg.eps(), level_scale=li, w_bar=sub.w_bar
        )
        outcome = cluster_level(cg, cfg.eps(), strict=cfg.strict)
        h_i = build_hi(cg, outcome, backend, cfg, ssa_clock)
        kept |= h_i
        row = {
            "sigma": sigma,
            "i": i,
            "clusters": cg.n_nodes,
            "class_edges": len(cg.class_edges),
            "h_i_edges": len(h_i),
            "phi": sum(lvl.potentials),
            "delta": sum(outcome.local_change),
            "degenerate": outcome.degenerate,
        }
        rows_here.append(row)
        if trace_levels is not None:
            trace_levels.append(
                {
                    "i": i,
                    "scale": li,
                    "prev_scale": lvl.prev_scale,
                    "members": [list(ms) for ms in lvl.members],
                    "potentials": list(lvl.potentials),
                    "collapse": list(lvl.collapse),
                    "h_i": sorted(h_i),
                    "local_change": list(outcome.local_change),
                    "corrected_change": list(outcome.corrected_change),
                    "degenerate": outcome.degenerate,
                }
            )
        lvl = contract_level(lvl, outcome)
        if lvl.cluster_count == 1 and not any(cells.get(j) for j in range(i + 1, max_i + 1)):
            break
    level_rows.extend(rows_here)
    if trace_levels is not None:
        # potential totals per level, the last one after the final contraction
        phi = [row["phi"] for row in rows_here] + [sum(lvl.potentials)]
        trace_sigma["ledger"] = {
            "phi_totals": phi,
            "deltas": [a - b for a, b in zip(phi, phi[1:])],
            "local_changes": [list(row["local_change"]) for row in trace_levels],
            "corrected_changes": [list(row["corrected_change"]) for row in trace_levels],
        }
    return kept


def _transform(g: WeightedGraph, cfg: PipelineConfig, backend, timings: dict):
    """Shared trunk: MST, split, per-class hierarchies, union."""
    t0 = time.perf_counter()
    mst_ids = build_mst(g)
    timings["mst"] = time.perf_counter() - t0
    mst_w = sum(g.edges[i][2] for i in mst_ids)
    if mst_w <= 0.0 or g.m == 0:
        timings.setdefault("leveling", 0.0)
        timings.setdefault("hierarchy", 0.0)
        timings.setdefault("ssa", 0.0)
        return set(range(g.m)), mst_ids, mst_w, [], None

    eps = cfg.eps()
    w_bar = eps * mst_w / g.n
    t0 = time.perf_counter()
    sub = subdivide_mst(g, mst_ids, w_bar)
    schedule = classify_edges(g, mst_ids, w_bar, eps, cfg.psi_value())
    timings["leveling"] = time.perf_counter() - t0

    ssa_clock = [0.0]
    level_rows: list[dict] = []
    trace: dict | None = {"per_sigma": {}} if cfg.trace else None
    t0 = time.perf_counter()
    # the MST and the light edges go straight into the output; each busy
    # weight class adds its own spanner
    h_all: set[int] = set(mst_ids)
    h_all.update(schedule.light_edges)
    per_class: dict[int, set[int]] = {}
    for sigma in sorted(schedule.per_sigma):
        trace_sigma = None
        if trace is not None:
            trace_sigma = trace["per_sigma"][sigma] = {"levels": [], "ledger": None}
        per_class[sigma] = _class_spanner(
            g, sub, schedule, sigma, cfg, backend, ssa_clock, level_rows, trace_sigma
        )
        h_all |= per_class[sigma]
    timings["hierarchy"] = time.perf_counter() - t0 - ssa_clock[0]
    timings["ssa"] = ssa_clock[0]
    if trace is not None:
        trace["edges"] = [list(e) for e in g.edges]
        trace["mst_ids"] = list(mst_ids)
        trace["mst_weight"] = mst_w
        trace["w_bar"] = w_bar
        trace["light_ids"] = list(schedule.light_edges)
        trace["sub_tree_edges"] = [list(e) for e in sub.tree_edges]
        trace["n_original"] = g.n
        trace["n_extended"] = sub.extended_vertex_count
        trace["eps"] = eps
        trace["per_class_edges"] = {s: sorted(v) for s, v in per_class.items()}
    return h_all, mst_ids, mst_w, level_rows, trace


# ---------------------------------------------------------------------------
# certification


def _certify(
    g: WeightedGraph, h_ids: set[int], mst_ids: list[int], cfg: PipelineConfig
) -> tuple[float, int]:
    """Measured max stretch over input edges and its witness edge id.

    Up to the cap every input edge is a demand.  Above it, the demands are
    the MST edges plus a seeded sample of sample_size input edges, and the
    search goes through measure_stretch's alias batched_stretch.  Both
    cases run in pure Python.
    """
    from .verify import measure_stretch

    if g.n <= cfg.verify_cap:
        return measure_stretch(g, sorted(h_ids))
    rng = random.Random(cfg.seed)
    sample = set(mst_ids)
    sample.update(rng.sample(range(g.m), min(cfg.sample_size, g.m)))
    # Demands whose edge sits in the spanner are met by that edge itself
    # (ratio <= 1, never above the 1.0 floor), so only the rest need searches.
    outside = [i for i in sorted(sample) if i not in h_ids]
    return batched_stretch(g, sorted(h_ids), outside)


def _result_stats(cfg, g, h_ids, mst_w, stretch, witness, level_rows, timings, scale=1.0, extra=None):
    for key in ("mst", "leveling", "hierarchy", "ssa", "verify"):
        timings.setdefault(key, 0.0)
    w_h = sum(g.edges[i][2] for i in h_ids)
    stats = {
        "mode": cfg.mode,
        "n": g.n,
        "m": g.m,
        "epsilon_user": cfg.eps_user,
        "epsilon_internal": cfg.eps(),
        "k": cfg.k if cfg.mode == "general" else None,
        "stretch_target": cfg.stretch_target(),
        "stretch_measured": stretch,
        "stretch_witness_edge": witness,
        "lightness": w_h / mst_w if mst_w > 0 else 1.0,
        "sparsity": len(h_ids) / max(1, g.n - 1),
        "mst_weight": mst_w * scale,
        "seed": cfg.seed,
        "strict": cfg.strict,
        "psi": cfg.psi_value(),
        "timings_ms": {k: round(v * 1000.0, 3) for k, v in timings.items()},
        "levels": level_rows,
    }
    if extra:
        stats.update(extra)
    return stats


# ---------------------------------------------------------------------------
# mode drivers


def _graph_driver(g: WeightedGraph, cfg: PipelineConfig, backend) -> SpannerResult:
    g.validate()
    gn, scale = normalize(dedup_parallel(g))
    timings: dict = {}
    h_ids, mst_ids, mst_w, level_rows, trace = _transform(gn, cfg, backend, timings)
    t0 = time.perf_counter()
    stretch, witness = _certify(gn, h_ids, mst_ids, cfg)
    timings["verify"] = time.perf_counter() - t0
    stats = _result_stats(cfg, gn, h_ids, mst_w, stretch, witness, level_rows, timings, scale)
    edges = [(gn.edges[i][0], gn.edges[i][1], gn.edges[i][2] * scale) for i in sorted(h_ids)]
    return SpannerResult(edges=edges, edge_ids=sorted(h_ids), run_graph=gn, stats=stats, trace=trace)


def light_spanner_general(g: WeightedGraph, cfg: PipelineConfig) -> SpannerResult:
    cfg.validate()
    if cfg.mode != "general":
        raise ValueError(f"config mode is {cfg.mode!r}, expected 'general'")
    return _graph_driver(g, cfg, lambda inp: ssa_general(inp, cfg.k))


def light_spanner_minor_free(g: WeightedGraph, cfg: PipelineConfig) -> SpannerResult:
    cfg.validate()
    if cfg.mode != "minor":
        raise ValueError(f"config mode is {cfg.mode!r}, expected 'minor'")
    return _graph_driver(g, cfg, lambda inp: ssa_minor(inp))


def light_spanner_geometric(p: PointSet, cfg: PipelineConfig) -> SpannerResult:
    cfg.validate()
    if cfg.mode not in ("euclidean", "udg"):
        raise ValueError(f"config mode is {cfg.mode!r}, expected a geometric mode")
    p.validate()
    t0 = time.perf_counter()
    base = _yao_base(p, cfg)
    base_time = time.perf_counter() - t0

    backend = lambda inp: ssa_geom(inp, p.d, _RepPositions(p, inp.reps))  # noqa: E731
    timings: dict = {"base": base_time}
    h_ids, _, mst_w, level_rows, trace = _transform(base, cfg, backend, timings)
    t0 = time.perf_counter()
    stretch, witness = _certify_geometric(p, base, h_ids, cfg)
    timings["verify"] = time.perf_counter() - t0
    stats = _result_stats(
        cfg,
        base,
        h_ids,
        mst_w,
        stretch,
        witness,
        level_rows,
        timings,
        extra={"eps_base": cfg.eps_base(), "base_edges": base.m},
    )
    edges = [base.edges[i] for i in sorted(h_ids)]
    return SpannerResult(
        edges=edges, edge_ids=sorted(h_ids), run_graph=base, stats=stats, trace=trace
    )


class _RepPositions:
    """Node id -> representative coordinates, insisting reps are original."""

    def __init__(self, p: PointSet, reps: dict[int, int]):
        self._p = p
        self._reps = reps

    def __getitem__(self, node: int):
        rep = self._reps[node]
        if rep >= self._p.n:
            raise ValueError(f"node {node} has a virtual representative {rep}")
        return self._p.points[rep]


# ---------------------------------------------------------------------------
# geometric base graphs


def _cone_angle(eps_base: float) -> float:
    # largest theta with 1/(cos(theta) - sin(theta)) <= 1 + eps_base,
    # found numerically; the Yao stretch bound then gives 1 + eps_base
    theta = eps_base / 2.0
    while theta > 1e-9 and 1.0 / (math.cos(theta) - math.sin(theta)) > 1.0 + eps_base:
        theta *= 0.9
    return theta


def _neighbours(p: PointSet, cfg: PipelineConfig):
    """u -> the (v, distance) candidates of point u: every other point, or
    in udg mode every point within the radius.

    Unit-disk candidates come from grid buckets of cell side = radius, so
    every in-range pair lies in adjacent cells; they are listed cell by cell
    in itertools.product order, ascending within a cell.  Each cell's list
    comes from one scan of the occupied cells, not a walk of 3^d offsets.
    """
    if cfg.mode != "udg":
        pts = p.points

        def every(u: int):
            pu = pts[u]
            return [(v, math.dist(pu, q)) for v, q in enumerate(pts) if v != u]

        return every
    r = cfg.radius
    cell = [tuple(math.floor(c / r) for c in pt) for pt in p.points]
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(cell):
        buckets.setdefault(key, []).append(i)

    @functools.cache
    def candidates(key: tuple[int, ...]) -> list[int]:
        # offset tuples sort lexicographically in itertools.product order
        diffs = ((tuple(a - k for a, k in zip(c, key)), c) for c in buckets)
        adjacent = sorted((off, c) for off, c in diffs if all(-1 <= s <= 1 for s in off))
        return [v for _, c in adjacent for v in buckets[c]]

    def near(u: int):
        for v in candidates(cell[u]):
            if v != u and (dist := p.distance(u, v)) <= r:
                yield v, dist

    return near


def _yao_base(p: PointSet, cfg: PipelineConfig) -> WeightedGraph:
    """Cone graph: per point and cone, the edge to the nearest candidate.

    In udg mode the candidates are the in-range points, which makes this
    the unit-disk cone graph.
    """
    _, cone_of = cone_selector(p.d, _cone_angle(cfg.eps_base()))
    near = _neighbours(p, cfg)
    pts = p.points
    chosen: set[tuple[int, int]] = set()
    for u, pu in enumerate(pts):
        best: dict[int, tuple[float, int]] = {}
        for v, dist in near(u):
            cone = cone_of(tuple(map(operator.sub, pts[v], pu)))
            cur = best.get(cone)
            if cur is None or (dist, v) < cur:
                best[cone] = (dist, v)
        chosen.update((min(u, v), max(u, v)) for _, v in best.values())
    edges = [(u, v, p.distance(u, v)) for u, v in sorted(chosen)]
    return WeightedGraph(p.n, edges)


# bench/test_bench.py reads pipeline._udg_base and monkeypatches the base
# builder through its __name__, so the old name stays as an alias
_udg_base = _yao_base


def _certify_geometric(p: PointSet, base: WeightedGraph, h_ids: set[int], cfg: PipelineConfig):
    """Stretch against the point metric itself, not just the base graph.

    Up to the cap this is every pair (every in-range pair for unit disks);
    above it, a seeded pair sample.  The spanner edges always enter the
    comparison graph so the measured value certifies them too.

    A sampled source has about one demanded endpoint, so each sampled pair
    gets its own A* search, guided by the straight-line distance to its far
    end: every metric edge weighs math.dist of its endpoints, so no path is
    shorter.  Shrunk by a relative 1e-9, the bound stays below float path
    sums too, which round by about an ulp of the sum per edge, while the
    distance still to go exceeds about 1e-7 of the path per edge left; the
    measured stretch is then bit for bit the plain search's.  With every
    pair demanded, one search per source is much cheaper than one per pair.
    """
    from .verify import measure_stretch

    pairs: dict[tuple[int, int], float] = {}
    if cfg.mode == "euclidean" and p.n > cfg.verify_cap:
        rng = random.Random(cfg.seed)
        want = min(cfg.sample_size, p.n * (p.n - 1) // 2)
        while len(pairs) < want:
            u = rng.randrange(p.n)
            v = rng.randrange(p.n)
            if u != v:
                pairs[(min(u, v), max(u, v))] = p.distance(u, v)
    else:
        near = _neighbours(p, cfg)
        in_range = [((u, v), w) for u in range(p.n) for v, w in near(u) if v > u]
        if p.n > cfg.verify_cap:
            in_range = random.Random(cfg.seed).sample(in_range, min(cfg.sample_size, len(in_range)))
        pairs.update(in_range)
    demand = None if p.n <= cfg.verify_cap else set(pairs)  # None: every pair

    for i in h_ids:
        u, v, w = base.edges[i]
        pairs[(min(u, v), max(u, v))] = w
    keys = sorted(pairs)
    metric = WeightedGraph(p.n, [(u, v, pairs[(u, v)]) for u, v in keys])
    index = {key: j for j, key in enumerate(keys)}
    h_in_metric = sorted(
        {index[(min(u, v), max(u, v))] for u, v, _ in (base.edges[i] for i in h_ids)}
    )
    if demand is None:
        return measure_stretch(metric, h_in_metric)
    pts = p.points
    return measure_stretch(
        metric,
        h_in_metric,
        edge_ids=sorted(index[key] for key in demand),
        lower_bound=lambda v, t: math.dist(pts[v], pts[t]) * (1 - 1e-9),
    )
