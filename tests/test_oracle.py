from pathlib import Path

import pytest

from conftest import brute_minima
from ucurve.cost import (
    Instance,
    generate_decomposable_explicit,
    generate_subset_sum_instance,
    load_instance,
    verify_decomposable,
)
from ucurve.oracle import exhaustive_solve, find_counterexample, legacy_ucurve_solve
from ucurve.ucs import ucs_solve

FIXTURE = Path(__file__).parent / "fixtures" / "legacy_counterexample_n5.json"
FIXTURE_LEGACY_SEED = 7_000_028  # the run seed find_counterexample paired with it


class TestExhaustive:
    def test_counts_every_subset(self):
        for n in (1, 3, 6):
            report = exhaustive_solve(n, lambda m: 5.0)
            assert report.computed_nodes == 2**n
            assert len(report.minima) == 2**n

    def test_n2_example(self, explicit_n2):
        report = exhaustive_solve(2, explicit_n2)
        assert report.minima_vectors() == ["10"]
        assert report.computed_nodes == 4

    def test_subset_sum_example(self):
        inst = Instance(n=3, kind="subset_sum", weights=(2, 3, 5), target=5)
        assert exhaustive_solve(3, inst).minima_vectors() == ["001", "110"]

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            exhaustive_solve(25, lambda m: 0.0)


class TestLegacy:
    def test_degree_one_is_always_optimal(self):
        for costs in [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0)]:
            inst = Instance(n=1, kind="explicit", costs=costs)
            report = legacy_ucurve_solve(1, inst, seed=3)
            assert report.best_cost == min(costs)

    def test_n2_example_still_optimal(self, explicit_n2):
        report = legacy_ucurve_solve(2, explicit_n2, seed=1)
        assert report.best_cost == 1.0

    def test_never_better_than_oracle(self):
        for seed in range(40):
            n = 4 + seed % 3
            inst = generate_decomposable_explicit(n, 70 + seed)
            _, optimum = brute_minima(inst)
            report = legacy_ucurve_solve(n, inst, seed=seed)
            assert report.best_cost >= optimum

    def test_terminates_on_subset_sum(self):
        for seed in range(10):
            inst = generate_subset_sum_instance(7, seed)
            report = legacy_ucurve_solve(7, inst, seed=seed)
            assert report.minima


class TestFindCounterexample:
    def test_zero_trials_finds_nothing(self):
        assert find_counterexample(5, 0, 7) is None

    def test_negative_trials_refused(self):
        with pytest.raises(ValueError, match="trials must be non-negative"):
            find_counterexample(5, -1, 7)

    def test_degree_validated(self):
        with pytest.raises(ValueError):
            find_counterexample(3, 10, 0)
        with pytest.raises(ValueError):
            find_counterexample(9, 10, 0)

    def test_finds_a_decomposable_witness_instance(self):
        inst = find_counterexample(5, 2000, 7)
        assert inst is not None
        assert verify_decomposable(inst) is None

    def test_search_is_deterministic(self):
        a = find_counterexample(5, 2000, 7)
        b = find_counterexample(5, 2000, 7)
        assert a == b


class TestFrozenFixture:
    def test_fixture_shows_the_flaw_and_the_fix(self):
        inst = load_instance(FIXTURE)
        assert verify_decomposable(inst) is None
        oracle = exhaustive_solve(inst.n, inst)
        legacy = legacy_ucurve_solve(inst.n, inst, seed=FIXTURE_LEGACY_SEED)
        corrected = ucs_solve(inst.n, inst, seed=0)
        assert legacy.best_cost > oracle.best_cost
        assert corrected.best_cost == oracle.best_cost
        assert set(corrected.minima) == set(oracle.minima)
