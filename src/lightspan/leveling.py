"""Weight classes for heavy edges.

Heavy edges (weight above w_bar/eps) are split into mu classes indexed by
sigma; within a class, level i collects edges with weight in
[L_i/(1+psi), L_i) where L_i = (1+psi)^sigma * w_bar / eps^i.  Light edges
and the MST go straight into the output, so each class only has to span its
own edges.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .hierarchy import InvariantViolation

# most class thresholds classify_edges lists (about 35 MB of floats); a
# finer psi or an eps nearer 1 needs more and is refused before any is built
THRESHOLD_BUDGET = 1 << 20


@dataclass
class LevelSchedule:
    psi: float
    eps: float
    mu: int
    w_bar: float
    light_edges: list[int]
    # sigma -> level i -> edge ids, nonempty cells only
    per_sigma: dict[int, dict[int, list[int]]]

    def level_threshold(self, sigma: int, i: int) -> float:
        """L_i = (1+psi)^sigma * w_bar / eps^i, the one expression for both the
        classifier's cell ends and the hierarchy's level scales."""
        return self.w_bar * (1.0 + self.psi) ** sigma / self.eps**i


def classify_edges(g, mst_edge_ids: list[int], w_bar: float, eps: float, psi: float) -> LevelSchedule:
    """Assign every heavy edge outside the MST to exactly one (sigma, i) cell.

    MST edges go straight into the output (see pipeline._transform), so they
    are neither light nor placed in a class.  With T = level_threshold, level
    i's cells are [T(sigma-1, i), T(sigma, i)) for sigma < mu, and class mu
    takes the rest of the level, [T(mu-1, i), T(0, i+1)).  As
    (1+psi)^(mu-1) < 1/eps, the cells tile the heavy range level by level.
    When mu = 1, eps (1+psi) >= 1, so the one class's windows
    [T(0, i), T(1, i)) overlap across levels; the lowest level wins and
    level i's cell ends at T(1, i).

    The cells' upper ends, level-major, form one non-decreasing table, and
    a weight's cell is where bisect puts it in that table.  A table that
    decreases raises InvariantViolation; one longer than THRESHOLD_BUDGET
    raises ValueError before it is built.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0,1), got {eps}")
    # 1 + psi must exceed 1 in floats, or every class would share one
    # threshold and log(1 + psi) would be 0
    if not (0.0 < psi <= 1.0) or 1.0 + psi == 1.0:
        raise ValueError(f"psi must be in (0,1] with 1 + psi > 1 in floating point, got {psi}")
    mu = max(1, math.ceil(math.log(1.0 / eps) / math.log(1.0 + psi)))
    sch = LevelSchedule(psi=psi, eps=eps, mu=mu, w_bar=w_bar, light_edges=[], per_sigma={})
    T = sch.level_threshold
    light_cut = T(0, 1)
    w_max = max((w for _, _, w in g.edges), default=0.0)
    ratio = max(1.0 / eps, w_max / w_bar)
    if not math.isfinite(ratio):
        raise ValueError(f"heaviest weight {w_max!r} over w_bar {w_bar!r} is not a finite ratio")
    # the last end lies at least a factor 1/eps above the heaviest weight
    levels = math.floor(math.log(ratio) / math.log(1.0 / eps)) + 1
    if mu * levels > THRESHOLD_BUDGET:
        raise ValueError(
            f"{mu} weight classes x {levels} levels exceed the budget of {THRESHOLD_BUDGET} "
            f"class thresholds; use a larger psi or an epsilon further from 1"
        )
    ends: list[float] = []
    for i in range(1, levels + 1):
        ends += [T(sigma, i) for sigma in range(1, mu)]
        ends.append(T(0, i + 1) if mu > 1 else T(1, i))
    if ends != sorted(ends):
        raise InvariantViolation(f"class thresholds decrease somewhere (w_bar={w_bar}, eps={eps}, psi={psi})")
    in_mst = set(mst_edge_ids)
    for eid, (_, _, w) in enumerate(g.edges):
        if eid in in_mst:
            continue
        if w <= light_cut:
            sch.light_edges.append(eid)
            continue
        i, sigma = divmod(bisect.bisect_right(ends, w), mu)
        sch.per_sigma.setdefault(sigma + 1, {}).setdefault(i + 1, []).append(eid)
    return sch
