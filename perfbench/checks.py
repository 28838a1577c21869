"""Answer checks made with the benchmark's own code.

Nothing here calls into the package, so a defect shared by a solver and
the package's own oracle or cost code still shows. The checks run after
the timed region.
"""

from __future__ import annotations

import math
from collections import Counter

EXACT_SOLVERS = ("ucs", "ubb")


def subset_sum_optimum(weights, target: int) -> int:
    """Smallest |target - s| over the sums s reachable by a subset of weights."""
    reach = 1  # bit s is set when some subset sums to s
    for w in weights:
        reach |= reach << w
    top = reach.bit_length() - 1
    gap = 0
    while True:
        below, above = target - gap, target + gap
        if below >= 0 and reach >> below & 1:
            return gap
        if above <= top and reach >> above & 1:
            return gap
        gap += 1


def subset_sum_cost(weights, target: int, mask: int) -> float:
    return float(abs(target - sum(w for i, w in enumerate(weights) if mask >> i & 1)))


def entropy_cost(rows, mask: int) -> float:
    """Penalized mean conditional entropy of the label given the features in mask.

    A feature pattern seen once costs 1/t; a pattern seen k >= 2 times costs
    k/t times the binary entropy (bits) of the labels that share it.
    """
    t = len(rows)
    by_label = Counter((x & mask, y) for x, y in rows)
    by_pattern = Counter(x & mask for x, _ in rows)
    total = 0.0
    for pattern, k in by_pattern.items():
        if k == 1:
            total += 1 / t
            continue
        h = 0.0
        for y in (0, 1):
            c = by_label.get((pattern, y), 0)
            if c:
                p = c / k
                h -= p * math.log2(p)
        total += k / t * h
    return total


def same_cost(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_solve(record: dict, cost_of, optimum: float | None, budget: int | None) -> str | None:
    """Why a solve failed, or None when its answer holds.

    cost_of recomputes a subset's cost with the benchmark's own code;
    optimum is the independent optimum when one is known.
    """
    best = record["best_cost"]
    minima = record["minima"]
    if best is None or not minima:
        return "no minimum reported"
    for m in minima:
        if not same_cost(cost_of(m), best):
            return f"minimum {m} recomputes to {cost_of(m)!r}, reported {best!r}"
    if budget is not None and record["nodes"] > budget:
        return f"{record['nodes']} nodes over the budget of {budget}"
    if optimum is not None:
        finished = not record["budget_exhausted"] and not record["target_reached"]
        if record["solver"] in EXACT_SOLVERS and finished and not same_cost(best, optimum):
            return f"exact solver returned {best!r}, optimum is {optimum!r}"
        if best < optimum and not same_cost(best, optimum):
            return f"cost {best!r} below the optimum {optimum!r}"
    return None
