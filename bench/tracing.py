"""Per-layer tracing from outside the program.

For one build, wrappers are swapped in for lightspan's public functions at
the module attribute where the caller looks them up (pipeline.py imports
them by name, so most hooks sit on lightspan.pipeline).  Each wrapped call
records a span (name, start, end, parent) in memory, and counters are
derived from the wrapped calls' arguments and return values.  The program's
code is not changed.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import lightspan.clustering as clustering
import lightspan.pipeline as pipeline
import lightspan.verify as verify

# (module, attribute, span name): the hooks.  Step functions are looked up
# inside lightspan.clustering by cluster_level, the stretch engine inside
# lightspan.verify by the certification code, everything else in pipeline.
HOOKS = [
    (pipeline, "dedup_parallel", "graphs.dedup_parallel"),
    (pipeline, "normalize", "graphs.normalize"),
    (pipeline, "build_mst", "graphs.build_mst"),
    (pipeline, "subdivide_mst", "graphs.subdivide_mst"),
    (pipeline, "classify_edges", "leveling.classify_edges"),
    (pipeline, "build_level1", "hierarchy.build_level1"),
    (pipeline, "build_cluster_graph", "hierarchy.build_cluster_graph"),
    (pipeline, "contract_level", "hierarchy.contract_level"),
    (pipeline, "cluster_level", "clustering.cluster_level"),
    (clustering, "step1_high_nodes", "clustering.step1"),
    (clustering, "step2_branching", "clustering.step2"),
    (clustering, "step3_augment", "clustering.step3"),
    (clustering, "step4_blue_pairs", "clustering.step4"),
    (clustering, "step5_paths", "clustering.step5"),
    (pipeline, "build_hi", "pipeline.build_hi"),
    (pipeline, "ssa_general", "ssa"),
    (pipeline, "ssa_geom", "ssa"),
    (pipeline, "_certify", "verify.certify"),
    (pipeline, "_certify_geometric", "verify.certify"),
    (verify, "measure_stretch", "verify.measure_stretch"),
    (pipeline, "batched_stretch", "verify.batched_stretch"),
]

# spans whose self time makes up the program's timings_ms["hierarchy"]
HIERARCHY_SPANS = (
    "hierarchy.build_level1",
    "hierarchy.build_cluster_graph",
    "hierarchy.contract_level",
    "clustering.cluster_level",
    "clustering.step1",
    "clustering.step2",
    "clustering.step3",
    "clustering.step4",
    "clustering.step5",
    "pipeline.build_hi",
)

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "graphs.build_mst.s": ("s", "lower"),
    "graphs.build_mst.calls": ("count", "lower"),
    "graphs.subdivide_mst.s": ("s", "lower"),
    "graphs.normalize.s": ("s", "lower"),
    "leveling.classify_edges.s": ("s", "lower"),
    "leveling.classes": ("count", "lower"),
    "leveling.class_edges": ("count", "lower"),
    "leveling.light_edges": ("count", "lower"),
    "hierarchy.build_level1.s": ("s", "lower"),
    "hierarchy.build_level1.calls": ("count", "lower"),
    "hierarchy.build_cluster_graph.s": ("s", "lower"),
    "hierarchy.contract_level.s": ("s", "lower"),
    "hierarchy.levels": ("count", "lower"),
    "hierarchy.clusters": ("count", "lower"),
    "clustering.cluster_level.s": ("s", "lower"),
    "clustering.step1.s": ("s", "lower"),
    "clustering.step2.s": ("s", "lower"),
    "clustering.step3.s": ("s", "lower"),
    "clustering.step4.s": ("s", "lower"),
    "clustering.step5.s": ("s", "lower"),
    "clustering.scan": ("count", "lower"),
    "clustering.high_nodes": ("count", "higher"),
    "pipeline.build_hi.s": ("s", "lower"),
    "pipeline.class_edges": ("count", "lower"),
    "pipeline.kept": ("count", "lower"),
    "pipeline.keep_ratio": ("ratio", "lower"),
    "pipeline.base.s": ("s", "lower"),
    "pipeline.base_edges": ("count", "lower"),
    "ssa.calls": ("count", "higher"),
    "ssa.s": ("s", "lower"),
    "ssa.input_edges": ("count", "higher"),
    "ssa.kept_edges": ("count", "lower"),
    "ssa.keep_ratio": ("ratio", "lower"),
    "verify.certify.s": ("s", "lower"),
    "verify.measure_stretch.s": ("s", "lower"),
    "verify.batched_stretch.s": ("s", "lower"),
    "verify.demands": ("count", "lower"),
    "verify.sources": ("count", "lower"),
    "verify.stretch_measured": ("ratio", "lower"),
    "verify.stretch_target": ("ratio", "lower"),
    "verify.trace_checks_failed": ("count", "lower"),
    "timings.mst.s": ("s", "lower"),
    "timings.leveling.s": ("s", "lower"),
    "timings.hierarchy.s": ("s", "lower"),
    "timings.ssa.s": ("s", "lower"),
    "timings.verify.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.hierarchy_coverage": ("ratio", "higher"),
    "trace.hooks_missing": ("count", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _demands(args, kwargs) -> tuple[int, int]:
    """(demand edges, distinct search sources) of a stretch-engine call."""
    g = args[0]
    ids = args[2] if len(args) > 2 else kwargs.get("edge_ids", kwargs.get("demand_ids"))
    ids = range(g.m) if ids is None else ids
    sources = {min(g.edges[i][:2]) for i in ids}
    return len(ids), len(sources)


class Tracer:
    """Context manager that hooks HOOKS for the duration of one build."""

    def __init__(self, build_id: int = 0):
        self.build_id = build_id
        self.spans: list[dict] = []
        self.counts: dict = defaultdict(int)
        self.schedule = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, attr, span in HOOKS:
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, span))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _wrap(self, orig, span: str):
        def wrapper(*args, **kwargs):
            rec = {"name": span, "start": 0.0, "end": 0.0, "build": self.build_id,
                   "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            self._count(span, args, kwargs, out)
            return out

        return wrapper

    def _count(self, span: str, args, kwargs, out) -> None:
        c = self.counts
        if span == "leveling.classify_edges":
            self.schedule = out  # read after the build: the pipeline filters it in place
        elif span == "hierarchy.build_cluster_graph":
            c["hierarchy.levels"] += 1
            c["hierarchy.clusters"] += out.n_nodes
        elif span == "clustering.cluster_level":
            c["clustering.scan"] += out.counters.get("scan", 0)
            c["clustering.high_nodes"] += sum(1 for kind in out.node_kind if kind == "high")
        elif span == "pipeline.build_hi":
            c["pipeline.class_edges"] += len(args[0].class_edges)
            c["pipeline.kept"] += len(out)
        elif span == "ssa":
            c["ssa.input_edges"] += len(args[0].edges)
            c["ssa.kept_edges"] += len(out.pruned)
        elif span in ("verify.measure_stretch", "verify.batched_stretch"):
            demands, sources = _demands(args, kwargs)
            c["verify.demands"] += demands
            c["verify.sources"] += sources

    def times(self) -> tuple[dict, dict]:
        """(inclusive, self) seconds per span name, summed over calls."""
        inclusive: dict = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for rec in self.spans:
            dur = rec["end"] - rec["start"]
            inclusive[rec["name"]] += dur
            if rec["parent"] is not None:
                child[rec["parent"]] += dur
        own: dict = defaultdict(float)
        for rec, covered in zip(self.spans, child):
            own[rec["name"]] += rec["end"] - rec["start"] - covered
        return inclusive, own

    def calls(self, span: str) -> int:
        return sum(1 for rec in self.spans if rec["name"] == span)

    def layer_metrics(self, res) -> dict:
        """Per-layer values of this build, except the run-level trace.* ones."""
        inc, own = self.times()
        c = self.counts
        timings = {k: v / 1000.0 for k, v in res.stats["timings_ms"].items()}
        schedule = self.schedule
        out = {
            "graphs.build_mst.s": inc["graphs.build_mst"],
            "graphs.build_mst.calls": self.calls("graphs.build_mst"),
            "graphs.subdivide_mst.s": inc["graphs.subdivide_mst"],
            "graphs.normalize.s": inc["graphs.normalize"] + inc["graphs.dedup_parallel"],
            "leveling.classify_edges.s": inc["leveling.classify_edges"],
            "leveling.classes": len(schedule.per_sigma) if schedule else 0,
            "leveling.class_edges": (
                sum(len(ids) for cells in schedule.per_sigma.values() for ids in cells.values())
                if schedule else 0
            ),
            "leveling.light_edges": len(schedule.light_edges) if schedule else 0,
            "hierarchy.build_level1.s": inc["hierarchy.build_level1"],
            "hierarchy.build_level1.calls": self.calls("hierarchy.build_level1"),
            "hierarchy.build_cluster_graph.s": inc["hierarchy.build_cluster_graph"],
            "hierarchy.contract_level.s": inc["hierarchy.contract_level"],
            "hierarchy.levels": c["hierarchy.levels"],
            "hierarchy.clusters": c["hierarchy.clusters"],
            "clustering.cluster_level.s": inc["clustering.cluster_level"],
            **{f"clustering.step{j}.s": inc[f"clustering.step{j}"] for j in range(1, 6)},
            "clustering.scan": c["clustering.scan"],
            "clustering.high_nodes": c["clustering.high_nodes"],
            "pipeline.build_hi.s": inc["pipeline.build_hi"],
            "pipeline.class_edges": c["pipeline.class_edges"],
            "pipeline.kept": c["pipeline.kept"],
            "pipeline.keep_ratio": _ratio(c["pipeline.kept"], c["pipeline.class_edges"]),
            "pipeline.base.s": timings.get("base", 0.0),
            "pipeline.base_edges": res.stats.get("base_edges", 0),
            "ssa.calls": self.calls("ssa"),
            "ssa.s": inc["ssa"],
            "ssa.input_edges": c["ssa.input_edges"],
            "ssa.kept_edges": c["ssa.kept_edges"],
            "ssa.keep_ratio": _ratio(c["ssa.kept_edges"], c["ssa.input_edges"]),
            "verify.certify.s": inc["verify.certify"],
            "verify.measure_stretch.s": inc["verify.measure_stretch"],
            "verify.batched_stretch.s": inc["verify.batched_stretch"],
            "verify.demands": c["verify.demands"],
            "verify.sources": c["verify.sources"],
            "verify.stretch_measured": res.stats["stretch_measured"],
            "verify.stretch_target": res.stats["stretch_target"],
            **{f"timings.{k}.s": timings.get(k, 0.0) for k in ("mst", "leveling", "hierarchy", "ssa", "verify")},
            "trace.hooks_missing": len(self.missing),
        }
        # sanity check: the wrapped hierarchy work (SSA spans are children of
        # build_hi, so their time is already excluded) should account for the
        # program's own hierarchy clock
        out["trace.hierarchy_coverage"] = _ratio(
            sum(own[name] for name in HIERARCHY_SPANS), timings.get("hierarchy", 0.0)
        )
        return out


def median_metrics(rows: list[dict]) -> dict:
    """Per-metric median over the traced builds of one run."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
