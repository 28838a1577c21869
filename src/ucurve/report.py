"""The report shared by every solver, and conclude, its one builder.

Each solver builds its cost.CostEvaluator first, searches inside
``with ev:`` (the evaluator keeps the run's clock and the stop that ended
it) and returns conclude(name, ev, ...), which draws the report from the
evaluator's memo, clock and stop.
"""

from __future__ import annotations

import time

from .cost import BudgetExhausted, CostEvaluator, TargetReached
from .lattice import render_element
from .record import Record


class SearchReport(Record):
    """Outcome and instrumentation of one solver run.

    minima holds every found element of best cost, sorted by characteristic
    vector for reproducible output. minmax_calls doubles as the number of
    main-loop iterations for the lattice search (each iteration asks for one
    minimal or maximal element). time_in_cost is the seconds spent in the
    cost function: measured, except that where calls take under 3 us only
    one in 16 is timed and each untimed call is credited the median cheap
    call (CostEvaluator.time_in_cost). A plain Record: built by keyword,
    compared field by field.
    """

    __slots__ = (
        "algorithm",
        "n",
        "minima",
        "best_cost",
        "computed_nodes",
        "wall_time",
        "time_in_cost",
        "dfs_calls",
        "minmax_calls",
        "budget_exhausted",
        "target_reached",
    )

    def __init__(
        self,
        algorithm: str,
        n: int,
        minima: list[int],
        best_cost: float | None,
        computed_nodes: int,
        wall_time: float,
        time_in_cost: float,
        dfs_calls: int = 0,
        minmax_calls: int = 0,
        budget_exhausted: bool = False,
        target_reached: bool = False,
    ) -> None:
        self.algorithm = algorithm
        self.n = n
        self.minima = minima
        self.best_cost = best_cost
        self.computed_nodes = computed_nodes
        self.wall_time = wall_time
        self.time_in_cost = time_in_cost
        self.dfs_calls = dfs_calls
        self.minmax_calls = minmax_calls
        self.budget_exhausted = budget_exhausted
        self.target_reached = target_reached

    @property
    def time_other(self) -> float:
        return self.wall_time - self.time_in_cost

    def minima_vectors(self) -> list[str]:
        return [render_element(m, self.n) for m in self.minima]

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "minima": self.minima_vectors(),
            "best_cost": self.best_cost,
            "computed_nodes": self.computed_nodes,
            "wall_time_sec": self.wall_time,
            "time_in_cost_sec": self.time_in_cost,
            "time_other_sec": self.time_other,
            "dfs_calls": self.dfs_calls,
            "minmax_calls": self.minmax_calls,
            "budget_exhausted": self.budget_exhausted,
            "target_reached": self.target_reached,
        }


def conclude(
    algorithm: str,
    evaluator: CostEvaluator,
    dfs_calls: int = 0,
    minmax_calls: int = 0,
) -> SearchReport:
    """Build the report of a run from its evaluator's memo, stopwatch and stop.

    Called after the solver's ``with evaluator:`` block. The best cost is
    the least in the memo and the minima are its elements of that cost, so
    a budget stop reports the best found so far. The evaluator's stop, the
    exception that ended the block or None, sets budget_exhausted or
    target_reached.
    """
    wall = time.perf_counter() - evaluator.started
    stop = evaluator.stop
    n = evaluator.n
    memo = evaluator.memo
    if memo:
        best = min(memo.values())
        minima = sorted(
            (e for e, c in memo.items() if c == best),
            key=lambda e: render_element(e, n),
        )
    else:
        best = None
        minima = []
    return SearchReport(
        algorithm=algorithm,
        n=n,
        minima=minima,
        best_cost=best,
        computed_nodes=evaluator.computed_nodes,
        wall_time=wall,
        time_in_cost=evaluator.time_in_cost(),
        dfs_calls=dfs_calls,
        minmax_calls=minmax_calls,
        budget_exhausted=isinstance(stop, BudgetExhausted),
        target_reached=isinstance(stop, TargetReached),
    )
