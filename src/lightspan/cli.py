"""Command line front end: generators, builders, verification, sweeps.

Subcommands:
  build general|euclidean|udg|minor|greedy  run a construction on an input file
  gen graph|points|grid|planar              write a seeded instance
  verify graph|trace                        re-check a spanner or a trace
  sweep                                     batch runs, one CSV row each

Exit codes: 0 success, 1 verification failure, 2 usage or bad parameters,
3 I/O or malformed files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import __version__
from .generate import grid_graph, planar_triangulation, random_connected_graph, uniform_points
from .graphs import (
    FormatError,
    WeightedGraph,
    format_graph,
    format_points,
    parse_graph,
    parse_points,
)
from .pipeline import (
    PipelineConfig,
    light_spanner_general,
    light_spanner_geometric,
    light_spanner_minor_free,
)
from .verify import NotSpanning, check_hierarchy, greedy_spanner, measure_stretch

CSV_COLUMNS = [
    "mode",
    "n",
    "m",
    "k",
    "epsilon",
    "stretch_measured",
    "lightness",
    "sparsity",
    "time_ms_total",
    "time_ms_ssa",
    "levels",
]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _manifest(args, inputs: list[str], outputs: list[str]) -> dict:
    echo = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "input") and v is not None
    }
    return {
        "subcommand": f"{args.command} {getattr(args, 'target', '')}".strip(),
        "inputs": inputs,
        "outputs": [o for o in outputs if o],
        "config": echo,
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }


def _config_from_args(args, mode: str) -> PipelineConfig:
    # --k exists on build general only, --radius on build udg only
    knobs = {key: getattr(args, key) for key in ("k", "radius") if hasattr(args, key)}
    return PipelineConfig(
        mode=mode,
        eps_user=args.epsilon,
        psi=args.psi,
        seed=args.seed,
        strict=args.strict,
        trace=args.trace is not None,
        **knobs,
    )


# ---------------------------------------------------------------------------
# build


def cmd_build(args) -> int:
    mode = args.target
    text = _read(args.input)
    if mode == "greedy":
        g = parse_graph(text)
        g.validate()
        t0 = time.perf_counter()
        kept = greedy_spanner(g, args.t)
        elapsed = (time.perf_counter() - t0) * 1000.0
        stretch, witness = measure_stretch(g, kept)
        mst_w = _mst_weight(g)
        h_w = sum(g.edges[i][2] for i in kept)
        stats = {
            "mode": "greedy",
            "n": g.n,
            "m": g.m,
            "t": args.t,
            "stretch_target": args.t,
            "stretch_measured": stretch,
            "stretch_witness_edge": witness,
            "lightness": h_w / mst_w if mst_w > 0 else 1.0,
            "sparsity": len(kept) / max(1, g.n - 1),
            "mst_weight": mst_w,
            "time_ms_total": round(elapsed, 3),
        }
        edges = [g.edges[i] for i in kept]
        result_graph = WeightedGraph(g.n, edges)
        trace = None
    else:
        cfg = _config_from_args(args, mode)
        if mode in ("euclidean", "udg"):
            p = parse_points(text)
            cfg.dim = p.d
            res = light_spanner_geometric(p, cfg)
            result_graph = WeightedGraph(p.n, res.edges)
        else:
            g = parse_graph(text)
            build = light_spanner_general if mode == "general" else light_spanner_minor_free
            res = build(g, cfg)
            result_graph = WeightedGraph(g.n, res.edges)
        stats = res.stats
        trace = res.trace

    trace_path = getattr(args, "trace", None)  # build greedy has no --trace
    stats["manifest"] = _manifest(args, [args.input], [args.out, args.stats, trace_path])
    _write(args.out, format_graph(result_graph))
    if args.stats:
        _write(args.stats, json.dumps(stats, indent=2) + "\n")
    if trace_path:
        _write(trace_path, json.dumps(trace) + "\n")
    if args.out not in (None, "-"):
        summary = {
            "stretch_measured": stats.get("stretch_measured"),
            "stretch_target": stats.get("stretch_target"),
            "lightness": stats.get("lightness"),
            "edges": result_graph.m,
        }
        print(json.dumps(summary))
    return 0


def _mst_weight(g: WeightedGraph) -> float:
    from .graphs import build_mst

    return sum(g.edges[i][2] for i in build_mst(g))


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    kind = args.target
    if kind == "graph":
        g = random_connected_graph(args.n, args.m, args.seed, args.w_lo, args.w_hi)
        _write(args.out, format_graph(g))
    elif kind == "points":
        p = uniform_points(args.n, args.d, args.seed)
        _write(args.out, format_points(p))
    elif kind == "grid":
        g = grid_graph(args.rows, args.cols, args.seed, args.jitter)
        _write(args.out, format_graph(g))
    else:
        g = planar_triangulation(args.n, args.seed)
        _write(args.out, format_graph(g))
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.target == "trace":
        trace = json.loads(_read(args.input))
        report = check_hierarchy(trace)
        print(report.to_json())
        return 0 if report.passed else 1

    g = parse_graph(_read(args.input))
    h = parse_graph(_read(args.spanner))
    if h.n != g.n:
        print(f"error: spanner has {h.n} vertices, graph has {g.n}", file=sys.stderr)
        return 1
    index: dict[tuple[int, int], list[int]] = {}
    for i, (u, v, w) in enumerate(g.edges):
        index.setdefault((min(u, v), max(u, v)), []).append(i)
    h_ids = []
    for u, v, w in h.edges:
        cands = index.get((min(u, v), max(u, v)), [])
        pick = None
        for i in cands:
            if abs(g.edges[i][2] - w) <= 1e-9 * max(1.0, abs(w)):
                pick = i
                break
        if pick is None:
            print(f"error: spanner edge ({u},{v},{w}) not found in graph", file=sys.stderr)
            return 1
        h_ids.append(pick)
    try:
        stretch, witness = measure_stretch(g, h_ids)
    except NotSpanning as exc:
        print(json.dumps({"passed": False, "error": str(exc)}))
        return 1
    mst_w = _mst_weight(g)
    h_w = sum(g.edges[i][2] for i in h_ids)
    report = {
        "passed": args.stretch is None or stretch <= args.stretch * (1.0 + 1e-9),
        "stretch_measured": stretch,
        "stretch_witness_edge": witness,
        "stretch_bound": args.stretch,
        "lightness": h_w / mst_w if mst_w > 0 else 1.0,
        "sparsity": len(h_ids) / max(1, g.n - 1),
    }
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    values = [_num(v) for v in args.values.split(",") if v]
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for value in values:
        for seed in range(args.seeds):
            rows.append(_sweep_run(args, value, seed))
    out = args.out
    if out in (None, "-"):
        writer = csv.DictWriter(sys.stdout, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return 0


def _num(text: str):
    v = float(text)
    return int(v) if v == int(v) else v


def _sweep_run(args, value, seed: int) -> dict:
    n, m, k, eps = args.n, args.m, args.k, args.epsilon
    if args.param == "n":
        n = int(value)
        m = int(round(n * args.density)) if args.mode in ("general", "minor") else None
    elif args.param == "m":
        m = int(value)
        n = max(2, int(round(m / args.density)))
    elif args.param == "eps":
        eps = float(value)
    elif args.param == "k":
        k = int(value)

    cfg = PipelineConfig(
        mode=args.mode, k=k, radius=args.radius, eps_user=eps, psi=args.psi,
        seed=seed, strict=args.strict,
    )
    if args.mode in ("euclidean", "udg"):
        p = uniform_points(n, args.d, seed)
        cfg.dim = args.d
        res = light_spanner_geometric(p, cfg)
    elif args.mode == "minor":
        res = light_spanner_minor_free(planar_triangulation(n, seed), cfg)
    else:
        res = light_spanner_general(random_connected_graph(n, m, seed), cfg)
    s = res.stats
    return {
        "mode": s["mode"],
        "n": s["n"],
        "m": s["m"],
        "k": s["k"],
        "epsilon": s["epsilon_internal"],
        "stretch_measured": s["stretch_measured"],
        "lightness": s["lightness"],
        "sparsity": s["sparsity"],
        "time_ms_total": round(sum(s["timings_ms"].values()), 3),
        "time_ms_ssa": s["timings_ms"]["ssa"],
        "levels": len(s["levels"]),
    }


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="lightspan", description=__doc__.split("\n")[0])
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("build", help="construct a spanner from an input file")
    pbs = pb.add_subparsers(dest="target", required=True)
    for mode in ("general", "euclidean", "udg", "minor", "greedy"):
        sp = pbs.add_parser(mode)
        sp.add_argument("input", help="graph or point file")
        sp.add_argument("--out", default=None, help="spanner edge list path (default stdout)")
        sp.add_argument("--stats", default=None, help="stats JSON path")
        sp.set_defaults(func=cmd_build)
        if mode == "greedy":
            sp.add_argument("--t", type=float, default=3.0, help="greedy stretch bound")
            continue
        sp.add_argument("--epsilon", type=float, default=0.25)
        if mode == "general":
            sp.add_argument("--k", type=int, default=2)
        if mode == "udg":
            sp.add_argument("--radius", type=float, default=1.0)
        sp.add_argument("--psi", type=float, default=None)
        sp.add_argument("--strict", action="store_true")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trace", default=None, help="write the hierarchy trace JSON here")

    pg = sub.add_parser("gen", help="write a seeded instance")
    pgs = pg.add_subparsers(dest="target", required=True)
    gg = pgs.add_parser("graph")
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--m", type=int, required=True)
    gg.add_argument("--w-lo", type=float, default=1.0)
    gg.add_argument("--w-hi", type=float, default=1000.0)
    gp = pgs.add_parser("points")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--d", type=int, default=2)
    gr = pgs.add_parser("grid")
    gr.add_argument("--rows", type=int, required=True)
    gr.add_argument("--cols", type=int, required=True)
    gr.add_argument("--jitter", type=float, default=0.0)
    gl = pgs.add_parser("planar")
    gl.add_argument("--n", type=int, required=True)
    for p in (gg, gp, gr, gl):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_gen)

    pv = sub.add_parser("verify", help="re-check a spanner or a trace")
    pvs = pv.add_subparsers(dest="target", required=True)
    vg = pvs.add_parser("graph")
    vg.add_argument("input", help="original graph file")
    vg.add_argument("--spanner", required=True, help="spanner edge list file")
    vg.add_argument("--stretch", type=float, default=None, help="fail if exceeded")
    vg.set_defaults(func=cmd_verify)
    vt = pvs.add_parser("trace")
    vt.add_argument("input", help="trace JSON file")
    vt.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sweep", help="batch runs, one CSV row per run")
    ps.add_argument("--mode", choices=("general", "euclidean", "udg", "minor"), default="general")
    ps.add_argument("--param", choices=("n", "m", "eps", "k"), required=True)
    ps.add_argument("--values", required=True, help="comma-separated sweep values")
    ps.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1 per value")
    ps.add_argument("--n", type=int, default=128)
    ps.add_argument("--m", type=int, default=512)
    ps.add_argument("--density", type=float, default=4.0, help="m/n when deriving one from the other")
    ps.add_argument("--d", type=int, default=2)
    ps.add_argument("--k", type=int, default=2)
    ps.add_argument("--epsilon", type=float, default=0.25)
    ps.add_argument("--radius", type=float, default=1.0)
    ps.add_argument("--psi", type=float, default=None)
    ps.add_argument("--strict", action="store_true")
    ps.add_argument("--out", default=None, help="CSV path (default stdout)")
    ps.set_defaults(func=cmd_sweep)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
