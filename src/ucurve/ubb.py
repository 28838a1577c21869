"""Optimal branch-and-bound baseline.

Enumerates the power set depth-first over the standard spanning tree
rooted at the empty set, where children extend their parent only with
feature indices above the last one added, so every subset is reached
exactly once. A child strictly costlier than its parent prunes its whole
subtree: the subtree lies inside the child's upper interval, and on a
chain-U-shaped cost everything there costs at least as much as the child.
Equal cost descends, since a plateau may still dip later along the chain.
"""

from __future__ import annotations

from typing import Callable

from .cost import CostEvaluator, Instance
from .report import SearchReport, conclude


def ubb_solve(
    n: int | None,
    cost: Instance | Callable[[int], float],
    node_budget: int | None = None,
    cost_target: float | None = None,
) -> SearchReport:
    ev = CostEvaluator(cost, n, node_budget, cost_target)
    n = ev.n
    with ev:
        _descend(0, ev.evaluate(0), 0, n, ev)
    return conclude("ubb", ev)


def _descend(element: int, element_cost: float, first_bit: int, n: int, ev: CostEvaluator) -> None:
    for b in range(first_bit, n):
        child = element | (1 << b)
        child_cost = ev.evaluate(child)
        if child_cost <= element_cost:
            _descend(child, child_cost, b + 1, n, ev)
