"""Optimal branch-and-bound baseline.

Enumerates the power set depth-first over the standard spanning tree
rooted at the empty set, where children extend their parent only with
feature indices above the last one added, so every subset is reached
exactly once. A child strictly costlier than its parent prunes its whole
subtree: the subtree lies inside the child's upper interval, and on a
chain-U-shaped cost everything there costs at least as much as the child.
Equal cost descends, since a plateau may still dip later along the chain.

The walk keeps an explicit stack of (element, cost, next bit) frames in
place of recursion: descending into a child pushes the parent's frame,
resumed at the child's next bit once the child's subtree is done (a
parent with no bit left is not pushed). It evaluates in the same preorder
as a recursive walk.
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
    evaluate = ev.evaluate
    with ev:
        stack = [(0, evaluate(0), 0)]
        push = stack.append
        pop = stack.pop
        while stack:
            element, element_cost, b = pop()
            while b < n:
                child = element | (1 << b)
                child_cost = evaluate(child)
                b += 1
                if child_cost <= element_cost:
                    if b < n:
                        push((element, element_cost, b))
                    element, element_cost = child, child_cost
    return conclude("ubb", ev)
