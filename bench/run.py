"""lightspan benchmark: seeded workloads through the public entry points.

    python3 bench/run.py                          # every workload, seed 0
    python3 bench/run.py --workload general-40k --seed 3
    python3 bench/run.py --workload udg-2k --trace 1   # per-layer run

Prints one "name value unit" line per metric and, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.  See
README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import pickle
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from check import check_output, digest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DEFAULT_SECONDS = 40
# the hooked spans' self time should account for the program's hierarchy
# clock up to the bookkeeping between hooked calls (about 1% today); the
# spans run inside that clock, so they cannot exceed it
HIERARCHY_COVERAGE = (0.9, 1.0)

END_TO_END = {
    "build_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lightness": "ratio",
    "kept_fraction": "ratio",
}


def _import_program():
    """Import lightspan from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import lightspan

    if Path(lightspan.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"lightspan imported from {lightspan.__file__}, not from {SRC}")


def tail_percentile(samples: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples above it, else the max."""
    n = len(samples)
    if n < 11:
        return "max", max(samples)
    q = int(100 * (1 - 10 / n))
    return f"p{q}", statistics.quantiles(samples, n=100)[q - 1]


class Builds:
    """Checks every build of a run's instances and counts the failures.

    Only a summary of each output is kept.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.instances = workload.instances(seed)
        self.attempted = 0
        self.failed = 0
        self.digests: list[set[str]] = [set() for _ in self.instances]
        self.quality: list[tuple[float, float] | None] = [None] * len(self.instances)

    def run(self, j: int, trace: bool = False):
        """(seconds, result or None) of one build of instance j in this process."""
        t0 = time.perf_counter()
        try:
            res = self.workload.build(self.instances[j], trace=trace)
        except Exception:  # a raising build is a counted failure, not a crash
            res = None
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        self.record(j, res)
        return elapsed, res

    def record(self, j: int, res) -> None:
        """Count one build of instance j, None if it raised, and check its output."""
        self.attempted += 1
        if res is None:
            self.failed += 1
            return
        try:
            problems = check_output(self.workload, self.instances[j], res, self.seed)
        except Exception as exc:  # output too malformed to check
            problems = [f"output check raised {exc!r}"]
        if problems:
            self.failed += 1
            print(f"# instance {j} output check failed: {'; '.join(problems)}", file=sys.stderr)
        self.digests[j].add(digest(res))
        self.quality[j] = (res.stats["lightness"], len(res.edge_ids) / res.run_graph.m)


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, Builds, dict[str, list[float]]]:
    """Timed set-ups and builds in build_worker.py, then the output check of each here.

    Also returns the samples behind build_s and setup_s.
    """
    metrics = {}
    builds = Builds(workload, seed)
    spec = json.dumps(dataclasses.asdict(workload))
    worker = subprocess.run(
        [sys.executable, str(BENCH / "build_worker.py"), str(SRC), spec, str(seed), str(seconds)],
        capture_output=True, timeout=900,
    )
    sys.stderr.write(worker.stderr.decode(errors="replace"))
    samples: dict[str, list[float]] = {"build_s": [], "setup_s": []}
    if worker.returncode != 0:
        print(f"# build worker exited with code {worker.returncode}", file=sys.stderr)
        builds.record(0, None)
        return metrics, builds, samples
    records = io.BytesIO(worker.stdout)
    while records.tell() < len(worker.stdout):
        kind, *rest = pickle.load(records)
        if kind == "peak_rss_mb":
            metrics["peak_rss_mb"] = rest[0]
            continue
        if kind == "setup":
            samples["setup_s"].append(rest[0])
            continue
        j, elapsed, res = rest
        builds.record(j, res)
        if res is not None:
            samples["build_s"].append(elapsed)
    for key, values in samples.items():
        if values:
            metrics[key] = statistics.median(values)
    if all(builds.quality):
        metrics["lightness"] = statistics.fmean(q[0] for q in builds.quality)
        metrics["kept_fraction"] = statistics.fmean(q[1] for q in builds.quality)
    return metrics, builds, samples


def run_traced(workload, seed: int, seconds: float) -> tuple[dict, Builds, list[str]]:
    """Pairs of untraced and traced builds in this process, then one trace=True build.

    Also returns what is wrong with the tracing itself: a hook that no longer
    finds its function, or spans that do not account for the program's clock.
    """
    from lightspan.verify import check_hierarchy
    from tracing import Tracer, median_metrics

    builds = Builds(workload, seed)
    ratios: list[float] = []
    rows: list[dict] = []
    spans: list[dict] = []
    pairs: list[float] = []
    start = time.perf_counter()
    # every instance once, then pairs while the next one ends within seconds
    while (builds.attempted < 2 * len(builds.instances)
           or time.perf_counter() - start + statistics.median(pairs) <= seconds):
        j = (builds.attempted // 2) % len(builds.instances)
        plain, res = builds.run(j)
        plain_ok = res is not None
        del res
        with Tracer(build_id=builds.attempted) as tracer:
            traced, res = builds.run(j)
        pairs.append(plain + traced)
        spans.extend(tracer.spans)
        if res is not None:
            rows.append(tracer.layer_metrics(res))
            if plain_ok:
                ratios.append(traced / plain)
        del res
    metrics = median_metrics(rows) if rows else {}
    if ratios:
        metrics["trace.overhead"] = statistics.median(ratios)
    trace_problems = []
    if metrics.get("trace.hooks_missing", 0):
        trace_problems.append(f"{metrics['trace.hooks_missing']} hooked names are gone; update tracing.HOOKS")
    coverage = metrics.get("trace.hierarchy_coverage", 0.0)
    low, high = HIERARCHY_COVERAGE
    if not low <= coverage <= high:
        trace_problems.append(f"hooked spans cover {coverage:.3f} of timings_ms.hierarchy, not {low} to {high}")
    _, res = builds.run(0, trace=True)
    if res is not None and rows:
        metrics["verify.trace_checks_failed"] = len(check_hierarchy(res.trace).failures())
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"spans-{workload.name}-seed{seed}.json").write_text(json.dumps(spans))
    return metrics, builds, trace_problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in this process; returns the result object."""
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    reference = json.loads((BENCH / "reference.json").read_text())
    if trace:
        metrics, builds, trace_problems = run_traced(workload, seed, seconds)
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        metrics, builds, samples = run_untraced(workload, seed, seconds)
        trace_problems = []
        units = END_TO_END
    complete = all(k in metrics for k in units)

    print(f"# workload {name} seed {seed} trace {int(trace)}")
    for key, unit in units.items():
        print(f"{key} {metrics.get(key, 'missing')} {unit}")
    if not trace:
        for key, values in samples.items():
            if values:
                label, value = tail_percentile(values)
                print(f"{key}.{label} {value} s")
                print(f"{key}.count {len(values)} count")
    print(f"fail_rate {builds.failed / builds.attempted} ratio ({builds.failed}/{builds.attempted})")
    want = reference["digests"].get(name) if seed == reference["seed"] else None
    for j, seen in enumerate(builds.digests):
        for d in sorted(seen):
            match = "n/a" if want is None else str(d == want[j]).lower()
            print(f"digest instance {j} {d} digest_match {match}")
        if len(seen) > 1:
            print(f"# builds of instance {j} gave different outputs")
    for problem in trace_problems:
        print(f"# tracing is broken: {problem}")
    return {
        "correct": builds.failed == 0 and complete and not trace_problems,
        "attempted": builds.attempted,
        "failed": builds.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so peaks and imports do not leak."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="one workload (default: all, each in its own process)")
    ap.add_argument("--seed", type=int, default=0, help="instance seed (default 0)")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="build time measured per run (BENCHMARK.json run_seconds is passed here)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = ap.parse_args(argv)
    try:
        _import_program()
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import lightspan from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.workload is None:
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
