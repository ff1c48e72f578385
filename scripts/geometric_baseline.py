#!/usr/bin/env python3
"""Geometric construction versus the quadratic greedy baseline.

On uniform random points, builds a (1+eps) spanner two ways: the greedy
algorithm on the full distance matrix (slow, near-optimal weight) and the
cone-based light construction from this package. Prints lightness,
sparsity, and build time side by side; the last column is our weight
overhead relative to greedy.
"""

import argparse
import time

from lightspan.generate import uniform_points
from lightspan.graphs import WeightedGraph, build_mst
from lightspan.pipeline import PipelineConfig, light_spanner_geometric
from lightspan.verify import greedy_spanner


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--epsilon", type=float, default=0.25)
    args = ap.parse_args()

    hdr = f"{'seed':>4} {'greedy_light':>12} {'ours_light':>10} {'greedy_s':>8} {'ours_s':>7} {'overhead':>8}"
    print(hdr)
    for seed in range(args.seeds):
        p = uniform_points(args.n, args.dim, seed=seed)
        metric = WeightedGraph(
            p.n, [(u, v, p.distance(u, v)) for u in range(p.n) for v in range(u + 1, p.n)]
        )
        mst_w = sum(metric.edges[i][2] for i in build_mst(metric))

        t0 = time.perf_counter()
        kept = greedy_spanner(metric, 1.0 + args.epsilon)
        greedy_t = time.perf_counter() - t0
        greedy_light = sum(metric.edges[i][2] for i in kept) / mst_w

        t0 = time.perf_counter()
        res = light_spanner_geometric(
            p, PipelineConfig(mode="euclidean", eps_user=args.epsilon, seed=seed)
        )
        ours_t = time.perf_counter() - t0
        ours_light = res.stats["lightness"]

        print(
            f"{seed:>4} {greedy_light:>12.3f} {ours_light:>10.3f} "
            f"{greedy_t:>8.2f} {ours_t:>7.2f} {ours_light / greedy_light:>8.2f}"
        )


if __name__ == "__main__":
    main()
