"""Sequential selection heuristics: SFS, SBS, and the floating SFFS."""

from __future__ import annotations

import math
from typing import Callable

from .cost import CostEvaluator, Instance
from .lattice import full_set
from .report import SearchReport, conclude


def _best_flip(current: int, bits: int, evaluator: CostEvaluator) -> int:
    """Current's cheapest neighbour across one of bits; ties go to the lowest bit."""
    best = None
    best_cost = None
    while bits:
        b = bits & -bits
        bits ^= b
        c = evaluator.evaluate(current ^ b)
        if best_cost is None or c < best_cost:
            best, best_cost = current ^ b, c
    return best


def sfs_step(current: int, n: int, evaluator: CostEvaluator) -> int:
    """Add the single feature whose inclusion minimizes cost (ties: lowest index)."""
    full = full_set(n)
    if current == full:
        raise ValueError("nothing left to add")
    return _best_flip(current, full ^ current, evaluator)


def sbs_step(current: int, n: int, evaluator: CostEvaluator) -> int:
    """Remove the single feature whose exclusion minimizes cost (ties: lowest index)."""
    if current == 0:
        raise ValueError("nothing left to remove")
    return _best_flip(current, current, evaluator)


def sffs_solve(
    n: int | None,
    cost: Instance | Callable[[int], float],
    node_budget: int | None = None,
    cost_target: float | None = None,
) -> SearchReport:
    """Floating forward selection run over the whole cardinality range.

    From the empty set, alternate a forward step with backward excursions
    accepted only while they strictly improve the best cost recorded at the
    resulting cardinality (the standard anti-cycling safeguard). The run
    ends when the forward frontier reaches the full set; the result is the
    global best over all cardinalities. Suboptimal by design.
    """
    ev = CostEvaluator(cost, n, node_budget, cost_target)
    n = ev.n
    full = full_set(n)
    with ev:
        current = 0
        best_at = {0: ev.evaluate(0)}
        while current != full:
            current = sfs_step(current, n, ev)
            k = current.bit_count()
            c_current = ev.evaluate(current)
            if c_current < best_at.get(k, math.inf):
                best_at[k] = c_current
            while current.bit_count() >= 2:
                candidate = sbs_step(current, n, ev)
                c_candidate = ev.evaluate(candidate)
                if c_candidate < best_at.get(k - 1, math.inf):
                    current = candidate
                    k -= 1
                    best_at[k] = c_candidate
                else:
                    break
    return conclude("sffs", ev)
