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

from .clustering import STRICT_EPS, cluster_level
from .graphs import (
    PointSet,
    WeightedGraph,
    build_mst,
    dedup_parallel,
    mst_weight,
    normalize,
    subdivide_mst,
)
from .hierarchy import POTENTIAL_RATIO, build_cluster_graph, build_level1, contract_level
from .leveling import classify_edges
from .ssa import (
    DEFAULT_BETA,
    SsaInput,
    cone_reach_2d,
    cone_selector,
    s_general,
    s_geom,
    ssa_general,
    ssa_geom,
    ssa_minor,
)

# bench/tracing.py times sampled certification through a hook on
# pipeline.batched_stretch, so measure_stretch keeps that name as an alias
from .verify import measure_stretch as batched_stretch

S_GENERAL = s_general(DEFAULT_BETA)
S_GEOM = s_geom(DEFAULT_BETA)
S_MINOR = 0.0


def stretch_rho(s_ssa: float) -> float:
    """Constant multiplying eps in the per-level stretch guarantee."""
    return max(s_ssa + 4.0 * POTENTIAL_RATIO, 10.0 * POTENTIAL_RATIO)


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
            return min(self.eps_user / self.rho(), STRICT_EPS)
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
    """edge_ids index run_graph: the input minus parallel edges, scaled to least weight 1 (ids shift
    on a multigraph), or the geometric base; so does stats "stretch_witness_edge" outside geometric modes."""

    edges: list[tuple[int, int, float]]  # the kept edges with the input's weights, bit for bit
    edge_ids: list[int]
    run_graph: WeightedGraph
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
            psi=cfg.psi_value(),
            gamma=cfg.rho(),
            # the least member is original if any is: original ids are below virtual ones
            reps={v: min(cg.members[v]) for v in nodes},
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
    cells = schedule.per_sigma[sigma]
    max_i = max(cells)
    trace_levels = None if trace_sigma is None else trace_sigma["levels"]
    lvl = build_level1(sub, schedule.level_threshold(sigma, 0))
    kept: set[int] = set()
    rows_here: list[dict] = []
    for i in range(1, max_i + 1):
        li, prev = schedule.level_threshold(sigma, i), schedule.level_threshold(sigma, i - 1)
        cg = build_cluster_graph(
            lvl, cells.get(i, []), g, cfg.t(), cfg.eps(), level_scale=li, prev_scale=prev, w_bar=sub.w_bar
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
                    "members": [list(ms) for ms in lvl.members],
                    "potentials": list(lvl.potentials),
                    "h_i": sorted(h_i),
                    "local_change": list(outcome.local_change),
                    "corrected_change": list(outcome.corrected_change),
                }
            )
        lvl = contract_level(lvl, outcome)
        if lvl.cluster_count == 1 and not any(cells.get(j) for j in range(i + 1, max_i + 1)):
            break
    level_rows.extend(rows_here)
    if trace_sigma is not None:
        # the potential total after the last contraction; each row holds its own
        trace_sigma["final_phi"] = sum(lvl.potentials)
    return kept


def _transform(g: WeightedGraph, cfg: PipelineConfig, backend, timings: dict, scale: float):
    """Shared trunk: MST, split, per-class hierarchies, union."""
    t0 = time.perf_counter()
    mst_ids = build_mst(g)
    timings["mst"] = time.perf_counter() - t0
    mst_w = mst_weight(g, mst_ids, scale)
    eps = cfg.eps()
    # a single vertex has MST weight 0; any positive w_bar then leaves
    # nothing to subdivide or classify
    w_bar = eps * mst_w / g.n if mst_w > 0 else 1.0
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
            trace_sigma = trace["per_sigma"][sigma] = {"levels": []}
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
        trace["n_extended"] = sub.extended_vertex_count
        trace["eps"] = eps
        trace["per_class_edges"] = {s: sorted(v) for s, v in per_class.items()}
    return h_all, mst_w, level_rows, trace


# ---------------------------------------------------------------------------
# certification


def _certify(g: WeightedGraph, h_ids: set[int], cfg: PipelineConfig) -> tuple[float, int]:
    """Measured max stretch over input edges and its witness edge id.

    Up to the cap every input edge is a demand.  Above it, the demands are
    a seeded sample of sample_size input edges, and the search goes through
    measure_stretch's alias batched_stretch.  A sampled source mostly has
    one demanded endpoint, so its search is steered from that endpoint: a
    bounded backward search whose distances guide a forward A* (see
    verify.measure_stretch).  normalize makes the least
    weight 1, so a steered distance up to 2**20 is kept without a second
    search.  Both cases run in pure Python.
    """
    from .verify import measure_stretch

    if g.n <= cfg.verify_cap:
        return measure_stretch(g, sorted(h_ids))
    sample = random.Random(cfg.seed).sample(range(g.m), min(cfg.sample_size, g.m))
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


def _run(g, source, cfg, backend, certify, timings, scale=1.0, extra=None) -> SpannerResult:
    """Shared driver tail: transform, certify(h_ids), stats, result.

    Drivers pass certify as a lambda that looks the certifier up by name at
    call time, so a hook swapped onto the module attribute still sees it.
    Output weights come from source, the graph g was normalised from.
    """
    h_ids, mst_w, level_rows, trace = _transform(g, cfg, backend, timings, scale)
    t0 = time.perf_counter()
    stretch, witness = certify(h_ids)
    timings["verify"] = time.perf_counter() - t0
    stats = _result_stats(cfg, g, h_ids, mst_w, stretch, witness, level_rows, timings, scale, extra)
    kept = sorted(h_ids)
    edges = [source.edges[i] for i in kept]
    return SpannerResult(edges=edges, edge_ids=kept, run_graph=g, stats=stats, trace=trace)


def _graph_driver(g: WeightedGraph, cfg: PipelineConfig, backend) -> SpannerResult:
    g.validate()
    gn, scale = normalize(source := dedup_parallel(g))
    certify = lambda h_ids: _certify(gn, h_ids, cfg)  # noqa: E731
    return _run(gn, source, cfg, backend, certify, {}, scale)


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

    backend = lambda inp: ssa_geom(inp, p.d, _rep_positions(p, inp.reps))  # noqa: E731
    certify = lambda h_ids: _certify_geometric(p, base, h_ids, cfg)  # noqa: E731
    extra = {"eps_base": cfg.eps_base(), "base_edges": base.m}
    return _run(base, base, cfg, backend, certify, {"base": base_time}, extra=extra)


def _rep_positions(p: PointSet, reps: dict[int, int]) -> dict[int, tuple[float, ...]]:
    """Node id -> representative coordinates, insisting reps are original."""
    for node, rep in reps.items():
        if rep >= p.n:
            raise ValueError(f"node {node} has a virtual representative {rep}")
    return {node: p.points[rep] for node, rep in reps.items()}


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
    try:
        cell = [tuple(math.floor(c / r) for c in pt) for pt in p.points]
    except OverflowError:
        raise ValueError(f"radius {r} is too small: a coordinate over it overflows a float") from None
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(cell):
        buckets.setdefault(key, []).append(i)

    @functools.cache
    def candidates(key: tuple[int, ...]) -> list[int]:
        # offset tuples sort lexicographically in itertools.product order
        diffs = ((tuple(a - k for a, k in zip(c, key)), c) for c in buckets)
        adjacent = sorted((off, c) for off, c in diffs if all(-1 <= s <= 1 for s in off))
        return [v for _, c in adjacent for v in buckets[c]]

    pts = p.points

    def near(u: int):
        pu = pts[u]
        for v in candidates(cell[u]):
            if v != u and (dist := math.dist(pu, pts[v])) <= r:
                yield v, dist

    return near


def _yao_base(p: PointSet, cfg: PipelineConfig) -> WeightedGraph:
    """Cone graph: per point and cone, the edge to the nearest candidate.

    In udg mode the candidates are the in-range points, which makes this
    the unit-disk cone graph.  The nearest candidate of a cone is its (dist,
    v) minimum, so each point visits its candidates in ascending (dist, v)
    order (one stable sort by dist over ids in ascending order) and keeps
    the first hit in each cone.  At d = 2 in euclidean mode _yao_scan_2d
    visits the same order from a grid and stops early; otherwise (d != 2 or
    udg mode) every candidate is scanned.  Nothing of the cone count's size
    is allocated, so tiny eps and high d stay affordable.
    """
    theta = _cone_angle(cfg.eps_base())
    tau, cone_of = cone_selector(p.d, theta)
    pts = p.points
    if cfg.mode == "euclidean" and p.d == 2:
        chosen = _yao_scan_2d(pts, theta, tau, cone_of)
    else:
        near = _neighbours(p, cfg)
        chosen = set()
        for u, pu in enumerate(pts):
            dist = dict(near(u))
            filled: set[int] = set()
            for v in sorted(sorted(dist), key=dist.__getitem__):
                cone = cone_of(tuple(map(operator.sub, pts[v], pu)))
                if cone not in filled:
                    filled.add(cone)
                    chosen.add((u, v) if u < v else (v, u))
    edges = [(u, v, p.distance(u, v)) for u, v in sorted(chosen)]
    return WeightedGraph(p.n, edges)


# points per grid cell that _yao_scan_2d aims for
CELL_POINTS = 6


def _yao_scan_2d(pts, theta: float, tau: int, cone_of) -> set[tuple[int, int]]:
    """The (u, v) pairs, u < v, of the 2-D cone graph over every point.

    Candidates come from a uniform grid of about CELL_POINTS points per
    cell, visited ring by ring around u's cell.  Cell indices are
    floor((x - lo) / side), so a point within r * side of u lies at most r
    cells away along each axis, up to the rounding of the two indices: two
    roundings of relative 2^-53 move an index by far less than slack =
    1e-9 (cells across + 1) cells.  So once ring r is gathered, every point
    whose math.dist from u is at most safe_r = (r - slack) side (1 - 1e-9)
    has been gathered, the last factor covering math.dist's own rounding.
    The gathered points with dist <= safe_r are scanned in (dist, v) order,
    which is then the order of the full sorted scan; past the last ring
    safe_r is infinite.

    The scan stops early.  Every candidate lies in the points' bounding box,
    and ssa.cone_reach_2d bounds, per cone, the distance to any box point
    that cone_of can put in it: the cone's wedge, widened by REACH_SLACK
    radians against the rounding of the difference vector and of atan2,
    clipped to the box, with a 1 + REACH_SLACK factor on the distance.  Once
    the next distance exceeds the reach of every cone still empty (or safe_r
    reaches that reach), no later candidate (all at least as far) can land
    in one, so the edges are those of the full scan.  With at least n - 1
    cones, or a cone too narrow for the slack, every candidate is scanned.
    """
    n = len(pts)
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    lo = (min(xs), min(ys))
    hi = (max(xs), max(ys))
    reach_of = cone_reach_2d(theta, lo, hi) if tau < n - 1 else None
    wx, wy = hi[0] - lo[0], hi[1] - lo[1]
    side = max(math.sqrt(wx * wy * CELL_POINTS / n), max(wx, wy) * CELL_POINTS / n)
    if 0.0 < side < math.inf:
        nx, ny = int(wx / side) + 1, int(wy / side) + 1
        key = [(int((x - lo[0]) / side), int((y - lo[1]) / side)) for x, y in pts]
    else:  # a box too thin or too wide to divide: one cell
        nx = ny = 1
        key = [(0, 0)] * n
    cells: list[list[tuple[int, tuple[float, float]]]] = [[] for _ in range(nx * ny)]
    for v, (i, j) in enumerate(key):
        cells[i * ny + j].append((v, pts[v]))
    slack = 1e-9 * (max(nx, ny) + 1)
    dist = math.dist
    chosen: set[tuple[int, int]] = set()
    for u, pu in enumerate(pts):
        ux, uy = pu
        ci, cj = key[u]
        last_ring = max(ci, nx - 1 - ci, cj, ny - 1 - cj)
        limit = math.inf
        if reach_of is not None:
            reach = reach_of(pu)
            empty = sorted(range(tau), key=reach.__getitem__)  # longest reach last
            limit = reach[empty[-1]]
        filled: set[int] = set()
        pending: list[tuple[float, int]] = []
        r = 0
        while True:
            # ring r's cells: those at i = ci -/+ r, then those at j = cj -/+ r
            # strictly between them; each run is a slice of cells[i * ny + j]
            j0, j1 = max(cj - r, 0), min(cj + r, ny - 1)
            ring = [cells[i * ny + j0 : i * ny + j1 + 1] for i in {ci - r, ci + r} if 0 <= i < nx]
            if r:
                i0, i1 = max(ci - r + 1, 0), min(ci + r - 1, nx - 1)
                cols = [j for j in (cj - r, cj + r) if 0 <= j < ny]
                ring += [cells[i0 * ny + j : i1 * ny + j + 1 : ny] for j in cols]
            pending += [(dist(pu, q), v) for span in ring for cell in span for v, q in cell if v != u]
            pending.sort()
            safe = (r - slack) * side * (1.0 - 1e-9) if r < last_ring else math.inf
            k = 0
            for d, v in pending:
                if d > safe or d > limit:
                    break
                k += 1
                x, y = pts[v]
                cone = cone_of((x - ux, y - uy))
                if cone in filled:
                    continue
                filled.add(cone)
                chosen.add((u, v) if u < v else (v, u))
                if reach_of is not None:
                    while empty and empty[-1] in filled:
                        empty.pop()
                    limit = reach[empty[-1]] if empty else -math.inf
            # stop once the next candidate in (dist, v) order is past the
            # limit: either it was gathered (it is within safe) or it is not
            # and lies beyond safe >= limit
            if safe >= limit or (k < len(pending) and pending[k][0] <= safe):
                break
            del pending[:k]
            r += 1
    return chosen


# bench/test_bench.py reads pipeline._udg_base and monkeypatches the base
# builder through its __name__, so the old name stays as an alias
_udg_base = _yao_base


def _certify_geometric(p: PointSet, base: WeightedGraph, h_ids: set[int], cfg: PipelineConfig):
    """Stretch against the point metric itself, not just the base graph.

    Up to the cap this is every pair (every in-range pair for unit disks);
    above it, a seeded pair sample.  The spanner edges always enter the
    comparison graph so the measured value certifies them too.  The witness
    is a position in the sorted list of those pairs, not a base edge id.

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
