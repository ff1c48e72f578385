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
        """L_i = (1+psi)^sigma * w_bar / eps^i (same expression the classifier uses)."""
        return self.w_bar * (1.0 + self.psi) ** sigma / self.eps**i


def _locate_level(w: float, base: float, eps: float, psi: float) -> tuple[int, bool]:
    """Smallest i >= 1 with w < base/eps^i, and whether w >= that threshold/(1+psi).

    base = (1+psi)^sigma * w_bar.  The candidate comes from a logarithm and is
    then nudged against the exact inequalities so float rounding cannot move
    an edge across a cell boundary.
    """
    # w < base/eps^i  <=>  i > log(w/base)/log(1/eps)
    i = max(1, math.floor(math.log(w / base) / math.log(1.0 / eps)) + 1)
    thr = base / eps**i
    while i > 1 and w < thr * eps:
        i -= 1
        thr = base / eps**i
    while w >= thr:
        i += 1
        thr = base / eps**i
    return i, w >= thr / (1.0 + psi)


# relative distance from a listed comparison value inside which
# classify_edges runs the sigma loop itself; far above the few ulps by which
# _locate_level's logarithm can misplace its first candidate level
GAP_GUARD = 1e-9


def _place(w: float, w_bar: float, pow_psi: list[float], mu: int, eps: float, psi: float) -> tuple[int, int]:
    """(sigma, i) of a heavy weight: the first class sigma < mu whose level
    window holds w, else class mu."""
    for sigma in range(1, mu):
        i, ok = _locate_level(w, w_bar * pow_psi[sigma], eps, psi)
        if ok:
            return sigma, i
    i, ok = _locate_level(w, w_bar * pow_psi[mu], eps, psi)
    if not ok:
        raise InvariantViolation(f"edge weight {w} escaped every class (w_bar={w_bar}, eps={eps}, psi={psi})")
    return mu, i


def classify_edges(g, mst_edge_ids: list[int], w_bar: float, eps: float, psi: float) -> LevelSchedule:
    """Assign every heavy edge outside the MST to exactly one (sigma, i) cell.

    MST edges go straight into the output (see pipeline._transform), so they
    are neither light nor placed in a class.  Classes sigma < mu are tried
    in increasing order; edges matched by none of them fall through to
    sigma = mu, which keeps the partition exhaustive when the top class
    overlaps the next level of the bottom one.

    _place is the one owner of that rule; each weight's answer is looked up
    per gap.  _place compares w only against the floats thr = base/eps^i,
    thr/(1+psi) and thr*eps (base = w_bar (1+psi)^sigma, as _locate_level
    computes them) for the levels i it visits, which stay below the first
    level whose thr*eps exceeds twice the heaviest weight.  Its one other
    input is the first candidate level, the floor of a logarithm, which
    steps only within a few ulps of some thr.  So every weight strictly
    between two adjacent listed values, and farther than a relative
    GAP_GUARD from both, gets the same answer: the first such weight of a gap
    runs _place and the rest reuse its answer.  A weight within GAP_GUARD of
    a listed value runs _place itself.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if not (0.0 < psi <= 1.0):
        raise ValueError(f"psi must be in (0,1], got {psi}")
    mu = max(1, math.ceil(math.log(1.0 / eps) / math.log(1.0 + psi)))
    light_cut = w_bar / eps
    light: list[int] = []
    per_sigma: dict[int, dict[int, list[int]]] = {}
    pow_psi = [1.0]
    for _ in range(mu):
        pow_psi.append(pow_psi[-1] * (1.0 + psi))
    w_max = max((w for _, _, w in g.edges), default=0.0)
    cuts: list[float] = []
    for sigma in range(1, mu + 1):
        base = w_bar * pow_psi[sigma]
        i = 1
        while True:
            thr = base / eps**i
            cuts += (thr, thr / (1.0 + psi), thr * eps)
            if thr * eps * 0.5 > w_max or math.isinf(thr):
                break
            i += 1
    cuts.sort()
    top = len(cuts)
    cell_of_gap: dict[int, tuple[int, int]] = {}
    in_mst = set(mst_edge_ids)
    for eid, (_, _, w) in enumerate(g.edges):
        if eid in in_mst:
            continue
        if w <= light_cut:
            light.append(eid)
            continue
        gap = bisect.bisect_right(cuts, w)
        if (gap and w - cuts[gap - 1] <= GAP_GUARD * cuts[gap - 1]) or (
            gap < top and cuts[gap] - w <= GAP_GUARD * cuts[gap]
        ):
            cell = _place(w, w_bar, pow_psi, mu, eps, psi)
        else:
            cell = cell_of_gap.get(gap)
            if cell is None:
                cell = cell_of_gap[gap] = _place(w, w_bar, pow_psi, mu, eps, psi)
        sigma, i = cell
        per_sigma.setdefault(sigma, {}).setdefault(i, []).append(eid)
    return LevelSchedule(psi=psi, eps=eps, mu=mu, w_bar=w_bar, light_edges=light,
                         per_sigma=per_sigma)
