"""Ground truth and the original, flawed lattice search.

exhaustive_solve enumerates everything and is the correctness oracle for
the other solvers. legacy_ucurve_solve reimplements the earlier published
search whose pop step restricts BOTH sides of the popped element, which
can delete an unvisited region holding the global minimum; the flaw is
demonstrated constructively by find_counterexample rather than by
hard-coding any particular figure.
"""

from __future__ import annotations

import random
from typing import Callable

from .cost import (
    DEFAULT_PLATEAU_NOISE,
    DEFAULT_PLATEAU_WEIGHT_MAX,
    CostEvaluator,
    Instance,
    generate_decomposable_explicit,
)
from .lattice import LOWER, UPPER, RestrictionSet, maximal_element, minimal_element
from .report import SearchReport, conclude
from .ucs import DEFAULT_P_UP, check_p_up

EXHAUSTIVE_MAX_DEGREE = 24


def exhaustive_solve(
    n: int | None,
    cost: Instance | Callable[[int], float],
    node_budget: int | None = None,
    cost_target: float | None = None,
) -> SearchReport:
    """Evaluate all 2**n subsets and return every minimum."""
    ev = CostEvaluator(cost, n, node_budget, cost_target)
    n = ev.n
    if n > EXHAUSTIVE_MAX_DEGREE:
        raise ValueError(f"exhaustive search is capped at degree {EXHAUSTIVE_MAX_DEGREE}")
    with ev:
        for m in range(1 << n):
            ev.evaluate(m)
    return conclude("exhaustive", ev)


def legacy_ucurve_solve(
    n: int | None,
    cost: Instance | Callable[[int], float],
    seed: int = 0,
    p_up: float = DEFAULT_P_UP,
    node_budget: int | None = None,
    cost_target: float | None = None,
) -> SearchReport:
    """The original minimum-exhausting search; may return suboptimal cost.

    Each outer iteration walks a maximal chain from a minimal or maximal
    element of the remaining space to the chain's minimum (the walk is a
    reconstruction: the chain extends by the lowest feasible bit index and
    stops as soon as the next chain element costs more), then exhausts the
    chain minimum depth-first, pushing every feasible unstacked neighbour
    of the stack top with cost <= the top's. A top with nothing to push is
    popped and added to BOTH restriction collections, the documented
    error: the popped element's lower and upper intervals vanish even
    where they were never visited. Directions are drawn as in ucs_solve:
    up when random() < p_up, p_up checked before anything is evaluated.
    """
    check_p_up(p_up)
    ev = CostEvaluator(cost, n, node_budget, cost_target)
    n = ev.n
    draw = random.Random(seed).random
    r_lower = RestrictionSet(LOWER, n)
    r_upper = RestrictionSet(UPPER, n)
    with ev:
        while True:
            going_up = draw() < p_up
            if going_up:
                own, other, a = r_lower, r_upper, minimal_element(r_lower)
            else:
                own, other, a = r_upper, r_lower, maximal_element(r_upper)
            if a is None:
                break
            if other.covered(a):
                own.update(a)
                continue
            m = _chain_minimum(a, n, ev, r_lower, r_upper, going_up)
            _minimum_exhausting(m, n, ev, r_lower, r_upper)
    return conclude("ucurve-legacy", ev)


def _chain_minimum(
    start: int,
    n: int,
    ev: CostEvaluator,
    r_lower: RestrictionSet,
    r_upper: RestrictionSet,
    going_up: bool,
) -> int:
    current = start
    c_current = ev.evaluate(start)
    while True:
        step = None
        for b in range(n):
            bit = 1 << b
            if going_up == bool(current & bit):
                continue
            candidate = current ^ bit
            if r_lower.covered(candidate) or r_upper.covered(candidate):
                continue
            step = candidate
            break
        if step is None:
            break
        c_step = ev.evaluate(step)
        if c_step > c_current:
            break
        current, c_current = step, c_step
    return current


def _minimum_exhausting(
    m: int,
    n: int,
    ev: CostEvaluator,
    r_lower: RestrictionSet,
    r_upper: RestrictionSet,
) -> None:
    stack = [m]
    stacked = {m}
    while stack:
        top = stack[-1]
        pushed = False
        # a top that earlier pops removed from the search space is not
        # expanded; it is exhausted as-is (this is what makes the pop step
        # able to delete never-visited regions)
        if not (r_lower.covered(top) or r_upper.covered(top)):
            c_top = ev.evaluate(top)
            for b in range(n):
                y = top ^ (1 << b)
                if y in stacked:
                    continue
                if r_lower.covered(y) or r_upper.covered(y):
                    continue
                c_y = ev.evaluate(y)
                if c_y <= c_top:
                    stack.append(y)
                    stacked.add(y)
                    pushed = True
        if not pushed:
            stack.pop()
            stacked.discard(top)
            r_lower.update(top)
            r_upper.update(top)


def find_counterexample(
    n: int,
    trials: int,
    seed: int,
    weight_max: int = DEFAULT_PLATEAU_WEIGHT_MAX,
    noise: float = DEFAULT_PLATEAU_NOISE,
) -> Instance | None:
    """Search for a chain-U-shaped instance where the legacy search loses the optimum.

    Draws seeded random decomposable explicit instances and compares the
    legacy search against exhaustive enumeration; the first instance whose
    legacy cost is strictly worse is returned. None when the trial budget
    runs out.
    """
    if not 4 <= n <= 8:
        raise ValueError("counter-example search supports degrees 4..8")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    for trial in range(trials):
        trial_seed = seed * 1_000_003 + 2 * trial
        instance = generate_decomposable_explicit(n, trial_seed, weight_max=weight_max, noise=noise)
        optimum = exhaustive_solve(n, instance)
        legacy = legacy_ucurve_solve(n, instance, seed=trial_seed + 1)
        if legacy.best_cost > optimum.best_cost:
            return instance
    return None
