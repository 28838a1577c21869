"""Golden solver trajectories.

``fixtures/ucs_trajectories.json`` pins, for 40 cases, what ucs computed,
how it got there and what it reported: four instance kinds (subset sum,
plateau and noisy decomposable explicit tables, mean conditional entropy),
each run unbudgeted, under a node budget and under a cost target. A
refactor of the search must reproduce every record on both coverage paths.

``fixtures/solver_trajectories.json`` pins the same 40 cases for sffs, ubb
and the legacy search: what each computed, what it reported and the order
in which it evaluated the masks. The legacy search keeps restriction sets,
so its records must hold on both coverage paths too.

A ucs record is checked twice on each path: traced, as it was made, and
without ``on_event``, where the run must report the same counts, minima
and best cost.
"""

import hashlib
import json
from pathlib import Path

import pytest

import ucurve.lattice
from ucurve.cost import (
    CostEvaluator,
    generate_decomposable_explicit,
    generate_sample_table,
    generate_subset_sum_instance,
    mce_instance,
)
from ucurve.oracle import exhaustive_solve, legacy_ucurve_solve
from ucurve.sffs import sffs_solve
from ucurve.ubb import ubb_solve
from ucurve.ucs import ucs_solve

FIXTURE = Path(__file__).parent / "fixtures" / "ucs_trajectories.json"
SOLVER_FIXTURE = Path(__file__).parent / "fixtures" / "solver_trajectories.json"

STOPS = ("none", "budget", "target")

CASES = [
    {"kind": kind, "n": 8 + i % 3, "seed": 500 + i, "stop": STOPS[i % 3]}
    for kind in ("subset_sum", "plateau", "noisy", "mce")
    for i in range(10)
]


def build_instance(case):
    n, seed = case["n"], case["seed"]
    if case["kind"] == "subset_sum":
        return generate_subset_sum_instance(n, seed)
    if case["kind"] == "plateau":
        return generate_decomposable_explicit(n, seed)
    if case["kind"] == "noisy":
        return generate_decomposable_explicit(n, seed, noise=0.3)
    return mce_instance(generate_sample_table(n, 80, seed))


def stop_criteria(case, inst):
    n = inst.n
    if case["stop"] == "budget":
        return {"node_budget": 2**n // 4}
    if case["stop"] == "target":
        return {"cost_target": exhaustive_solve(n, inst).best_cost}
    return {}


def run(case):
    """The ucs report and event stream for one case."""
    inst = build_instance(case)
    events = []
    stops = stop_criteria(case, inst)
    report = ucs_solve(inst.n, inst, seed=case["seed"], on_event=events.append, **stops)
    return report, events


def pinned(report):
    """What a ucs fixture record pins of the report."""
    return {
        "computed_nodes": report.computed_nodes,
        "dfs_calls": report.dfs_calls,
        "minmax_calls": report.minmax_calls,
        "minima": report.minima_vectors(),
        "best_cost": report.best_cost,
    }


def trajectory(case):
    report, events = run(case)
    stream = json.dumps(events, sort_keys=True).encode()
    return dict(pinned(report), events_sha256=hashlib.sha256(stream).hexdigest())


OTHER_SOLVERS = {
    "sffs": lambda n, cost, case, stops: sffs_solve(n, cost, **stops),
    "ubb": lambda n, cost, case, stops: ubb_solve(n, cost, **stops),
    "ucurve-legacy": lambda n, cost, case, stops: legacy_ucurve_solve(
        n, cost, seed=case["seed"], **stops
    ),
}


def solver_trajectory(case, solver):
    """What sffs, ubb or the legacy search made of one case.

    The cost reaches the solver as a bare callable that records each mask
    it is asked for; the evaluator's memo asks once per mask, so the
    record is the evaluation order.
    """
    inst = build_instance(case)
    fn = inst.cost_function()
    order = []

    def recorded(x):
        order.append(x)
        return fn(x)

    report = OTHER_SOLVERS[solver](inst.n, recorded, case, stop_criteria(case, inst))
    return {
        "computed_nodes": report.computed_nodes,
        "minima": report.minima_vectors(),
        "best_cost": report.best_cost,
        "order_sha256": hashlib.sha256(json.dumps(order).encode()).hexdigest(),
    }


class TestGoldenTrajectories:
    """Each fixture record: the case, then what ucs made of it.

    The fixture was generated from the ``tests`` directory with::

        PYTHONPATH=../src python -c "
        import json, test_ucs_trajectories as t
        records = [dict(c, **t.trajectory(c)) for c in t.CASES]
        open('fixtures/ucs_trajectories.json', 'w').write(json.dumps(records, indent=1) + '\\n')"

    and the other solvers' fixture the same way, from
    ``[dict(c, solver=s, **t.solver_trajectory(c, s)) for s in t.OTHER_SOLVERS for c in t.CASES]``.
    """

    @pytest.mark.parametrize("bitmap", [True, False])
    def test_fixture_reproduced(self, monkeypatch, bitmap):
        if not bitmap:
            monkeypatch.setattr(ucurve.lattice, "_ACCEL_MAX_DEGREE", 0)
        records = json.loads(FIXTURE.read_text(encoding="utf-8"))
        assert [{k: r[k] for k in CASES[0]} for r in records] == CASES
        for record in records:
            case = {k: record[k] for k in CASES[0]}
            expected = {k: v for k, v in record.items() if k not in case}
            assert trajectory(case) == expected, case

    @pytest.mark.parametrize("bitmap", [True, False])
    def test_fixture_reproduced_untraced(self, monkeypatch, bitmap):
        # the same runs without on_event: everything the report pins must
        # come out as the traced record has it
        if not bitmap:
            monkeypatch.setattr(ucurve.lattice, "_ACCEL_MAX_DEGREE", 0)
        for record in json.loads(FIXTURE.read_text(encoding="utf-8")):
            case = {k: record[k] for k in CASES[0]}
            inst = build_instance(case)
            report = ucs_solve(inst.n, inst, seed=case["seed"], **stop_criteria(case, inst))
            got = pinned(report)
            assert got == {k: record[k] for k in got}, case

    @pytest.mark.parametrize(
        "solver, bitmap",
        [("sffs", True), ("ubb", True), ("ucurve-legacy", True), ("ucurve-legacy", False)],
    )
    def test_other_solvers_reproduced(self, monkeypatch, solver, bitmap):
        if not bitmap:
            monkeypatch.setattr(ucurve.lattice, "_ACCEL_MAX_DEGREE", 0)
        records = json.loads(SOLVER_FIXTURE.read_text(encoding="utf-8"))
        records = [r for r in records if r["solver"] == solver]
        assert [{k: r[k] for k in CASES[0]} for r in records] == CASES
        for record in records:
            case = {k: record[k] for k in CASES[0]}
            expected = {k: v for k, v in record.items() if k not in case and k != "solver"}
            assert solver_trajectory(case, solver) == expected, case

    def test_each_cost_is_read_once(self, monkeypatch):
        # an unbudgeted run asks the evaluator once per push event, a DFS
        # seed included, and for nothing it already holds
        calls = 0
        evaluate = CostEvaluator.evaluate

        def counted(self, x):
            nonlocal calls
            calls += 1
            return evaluate(self, x)

        monkeypatch.setattr(CostEvaluator, "evaluate", counted)
        for case in CASES:
            if case["stop"] != "none":
                continue
            calls = 0
            report, events = run(case)
            pushes = sum(1 for e in events if e["event"] == "push")
            assert calls == pushes, case
