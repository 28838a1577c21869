import statistics

import pytest

import ucurve.cost
from ucurve.cost import (
    CostEvaluator,
    generate_decomposable_explicit,
    generate_subset_sum_instance,
)
from ucurve.oracle import exhaustive_solve, legacy_ucurve_solve
from ucurve.sffs import sffs_solve
from ucurve.ubb import ubb_solve
from ucurve.ucs import ucs_solve

SOLVERS = [ucs_solve, ubb_solve, sffs_solve, exhaustive_solve, legacy_ucurve_solve]


def spy_on_evaluate(monkeypatch) -> list:
    evaluated = []
    evaluate = CostEvaluator.evaluate

    def spy(self, x):
        evaluated.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(ucurve.cost.CostEvaluator, "evaluate", spy)
    return evaluated


@pytest.mark.parametrize("solve", SOLVERS, ids=lambda solve: solve.__name__)
@pytest.mark.parametrize("n", [pytest.param(5, id="instance")])
def test_solver_rejects_a_degree_that_is_not_the_costs(monkeypatch, solve, n):
    # the cost has degree 7; a degree of 5 once searched the wrong lattice
    # and reported a cost far from the optimum, now nothing is evaluated
    evaluated = spy_on_evaluate(monkeypatch)
    with pytest.raises(ValueError, match="does not match"):
        solve(n, generate_subset_sum_instance(7, 3))
    assert evaluated == []


@pytest.mark.parametrize("solve", SOLVERS, ids=lambda solve: solve.__name__)
@pytest.mark.parametrize(
    "n, cost",
    [
        pytest.param(True, lambda m: float(m), id="callable"),
        pytest.param(True, generate_subset_sum_instance(1, 3), id="instance"),
        # the evaluator must check the degree before the solver reads it,
        # or these raise TypeError from a shift or a range instead
        pytest.param("5", lambda m: float(m), id="str-callable"),
        pytest.param(5.0, lambda m: float(m), id="float-callable"),
        pytest.param(None, lambda m: float(m), id="None-callable"),
        pytest.param("5", generate_subset_sum_instance(5, 3), id="str-instance"),
        pytest.param(5.0, generate_subset_sum_instance(5, 3), id="float-instance"),
    ],
)
def test_solver_rejects_a_bool_degree(monkeypatch, solve, n, cost):
    # True is an int equal to 1; it once ran as degree 1 and was reported as "n": true
    evaluated = spy_on_evaluate(monkeypatch)
    with pytest.raises(ValueError, match="degree"):
        solve(n, cost)
    assert evaluated == []


@pytest.mark.parametrize("solve", SOLVERS, ids=lambda solve: solve.__name__)
def test_solver_reads_its_degree_off_an_instance(solve):
    # n=None with an Instance means the instance's degree; ucs, ubb and
    # exhaustive once raised TypeError, and ubb evaluated mask 0 first
    instance = generate_subset_sum_instance(6, 3)
    got, want = (solve(n, instance).to_dict() for n in (None, instance.n))
    for wall_clock in ("wall_time_sec", "time_in_cost_sec", "time_other_sec"):
        del got[wall_clock], want[wall_clock]
    assert got == want
    assert got["n"] == 6


@pytest.mark.parametrize("solve", SOLVERS, ids=lambda solve: solve.__name__)
@pytest.mark.parametrize(
    "stop",
    [
        {"node_budget": True},
        {"node_budget": False},
        {"cost_target": "5"},
        {"cost_target": float("nan")},
        {"cost_target": True},
    ],
    ids=repr,
)
def test_solver_checks_its_stop_criteria_before_evaluating(monkeypatch, solve, stop):
    evaluated = spy_on_evaluate(monkeypatch)
    with pytest.raises(ValueError, match="budget|target"):
        solve(5, generate_subset_sum_instance(5, 3), **stop)
    assert evaluated == []


# every solver, sffs and the legacy search included, reaches the optimum of
# these instances unstopped, so each of them must reach either target
TARGET_INSTANCES = {
    "subset_sum-6": generate_subset_sum_instance(6, 2),
    "subset_sum-8": generate_subset_sum_instance(8, 1),
    "subset_sum-10": generate_subset_sum_instance(10, 2),
    "noisy-6": generate_decomposable_explicit(6, 1, noise=0.3),
    "noisy-8": generate_decomposable_explicit(8, 4, noise=0.3),
    "noisy-10": generate_decomposable_explicit(10, 1, noise=0.3),
}


@pytest.mark.parametrize("solve", SOLVERS, ids=lambda solve: solve.__name__)
@pytest.mark.parametrize("instance", TARGET_INSTANCES.values(), ids=TARGET_INSTANCES.keys())
@pytest.mark.parametrize("looser", [False, True], ids=["optimum", "looser"])
def test_the_evaluation_that_meets_the_target_is_the_last(solve, instance, looser):
    # sffs once evaluated on after meeting its target: its neighbour scan never looked
    n = instance.n
    fn = instance.cost_function()
    costs = [fn(x) for x in range(1 << n)]
    target = min(costs)
    assert solve(n, instance).best_cost == target
    if looser:
        target = (target + statistics.median(costs)) / 2
    fresh = []

    def recorded(x):
        fresh.append(fn(x))
        return fresh[-1]

    report = solve(n, recorded, cost_target=target)
    met = [i for i, cost in enumerate(fresh) if cost <= target]
    assert met and met[0] == len(fresh) - 1
    assert report.target_reached and not report.budget_exhausted
    assert report.best_cost <= target
    assert report.computed_nodes == len(fresh)
