"""Weight classes for heavy edges.

Heavy edges (weight above w_bar/eps) are split into mu classes indexed by
sigma; within a class, level i collects edges with weight in
[L_i/(1+psi), L_i) where L_i = (1+psi)^sigma * w_bar / eps^i.  Light edges
and the MST go straight into the output, so each class only has to span its
own edges.
"""

from __future__ import annotations

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


def classify_edges(g, mst_edge_ids: list[int], w_bar: float, eps: float, psi: float) -> LevelSchedule:
    """Assign every heavy edge outside the MST to exactly one (sigma, i) cell.

    MST edges go straight into the output (see pipeline._transform), so they
    are neither light nor placed in a class.  Classes sigma < mu are tried
    in increasing order; edges matched by none of them fall through to
    sigma = mu, which keeps the partition exhaustive when the top class
    overlaps the next level of the bottom one.
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
    in_mst = set(mst_edge_ids)
    for eid, (_, _, w) in enumerate(g.edges):
        if eid in in_mst:
            continue
        if w <= light_cut:
            light.append(eid)
            continue
        placed = None
        for sigma in range(1, mu):
            i, ok = _locate_level(w, w_bar * pow_psi[sigma], eps, psi)
            if ok:
                placed = (sigma, i)
                break
        if placed is None:
            i, ok = _locate_level(w, w_bar * pow_psi[mu], eps, psi)
            if not ok:
                raise InvariantViolation(f"edge weight {w} escaped every class (w_bar={w_bar}, eps={eps}, psi={psi})")
            placed = (mu, i)
        sigma, i = placed
        per_sigma.setdefault(sigma, {}).setdefault(i, []).append(eid)
    return LevelSchedule(psi=psi, eps=eps, mu=mu, w_bar=w_bar, light_edges=light,
                         per_sigma=per_sigma)
