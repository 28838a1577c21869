import pytest

import ucurve.cost
from ucurve.cost import CostEvaluator, generate_subset_sum_instance
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
    "cost",
    [
        pytest.param(lambda m: float(m), id="callable"),
        pytest.param(generate_subset_sum_instance(1, 3), id="instance"),
    ],
)
def test_solver_rejects_a_bool_degree(monkeypatch, solve, cost):
    # True is an int equal to 1; it once ran as degree 1 and was reported as "n": true
    evaluated = spy_on_evaluate(monkeypatch)
    with pytest.raises(ValueError, match="degree"):
        solve(True, cost)
    assert evaluated == []


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
