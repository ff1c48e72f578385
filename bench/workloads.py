"""The benchmark's workloads: seeded instances and the entry point each runs.

Each workload is one input family pushed through a public entry point of
lightspan.  The instance is made from the workload seed alone; the program
only ever sees the generated graph or point set.
"""

from __future__ import annotations

from dataclasses import dataclass

from lightspan.generate import random_connected_graph, uniform_points
from lightspan.pipeline import PipelineConfig, light_spanner_general, light_spanner_geometric

# Instances per run.  Quality metrics are deterministic per instance but
# vary between instances; a run reports them over a fixed set of instances
# so that two runs of one seed agree exactly and runs of other seeds agree
# closely.
INSTANCES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # general | euclidean | udg
    n: int
    m: int = 0  # edges, general mode only
    radius: float = 1.0  # udg mode only
    eps_user: float = 0.25
    k: int = 2

    def make_instance(self, seed: int):
        if self.mode == "general":
            return random_connected_graph(self.n, self.m, seed)
        return uniform_points(self.n, 2, seed)

    def instances(self, seed: int) -> list:
        """The run's inputs: instance seeds seed*INSTANCES ... seed*INSTANCES + INSTANCES-1."""
        return [self.make_instance(seed * INSTANCES + j) for j in range(INSTANCES)]

    def config(self, trace: bool = False) -> PipelineConfig:
        return PipelineConfig(
            mode=self.mode, k=self.k, radius=self.radius, eps_user=self.eps_user, trace=trace
        )

    def build(self, instance, trace: bool = False):
        """One entry-point call, certification included."""
        if self.mode == "general":
            return light_spanner_general(instance, self.config(trace))
        return light_spanner_geometric(instance, self.config(trace))


# Why these three (see README.md for the layer -> metric -> workload map):
# - general-40k: no base graph, hierarchy and clustering dominate, and
#   certification takes the scipy-sampled path.
# - euclid-1k: the O(n^2) Yao base and pure-Python certification dominate;
#   it is the control for hierarchy changes.
# - udg-2k: grid-bucket base and in-range-pair certification, so a base or
#   certification change that helps Yao but hurts UDG shows up here.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("general-40k", "general", n=10000, m=40000),
        Workload("euclid-1k", "euclidean", n=1000),
        Workload("udg-2k", "udg", n=2000, radius=0.1),
    )
}
