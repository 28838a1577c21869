import os
import random
import subprocess
import sys
import unittest.mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucurve.lattice
import ucurve.ucs
from conftest import NoMinimumLossObserver, brute_minima, in_current_space, package_path
from ucurve.cost import (
    CostEvaluator,
    Instance,
    generate_decomposable_explicit,
    generate_sample_table,
    generate_subset_sum_instance,
    mce_instance,
)
from ucurve.harness import ALGORITHMS, run_solver
from ucurve.lattice import (
    LOWER,
    UPPER,
    RestrictionSet,
    full_set,
    minimal_element,
    parse_element,
)
from ucurve.oracle import exhaustive_solve, legacy_ucurve_solve
from ucurve.ubb import ubb_solve
from ucurve.ucs import (
    Node,
    dfs,
    lower_pruning,
    node_pruning,
    select_unvisited_adjacent,
    ucs_solve,
)


def make_node(element, n):
    # a newly visited element: nothing verified, nothing known covered
    return Node(element, full_set(n))


class TestSelectUnvisitedAdjacent:
    def test_returns_first_unvisited_neighbour(self):
        n = 2
        y = make_node(parse_element("10"), n)
        graph = {y.element: y}
        x = select_unvisited_adjacent(y, graph, RestrictionSet(LOWER, n), RestrictionSet(UPPER, n))
        assert x is not None
        assert x.element == parse_element("00")
        assert x.unverified == full_set(n)
        assert x.adjacent & x.element == x.element
        assert x.adjacent & ~x.element == full_set(n) ^ x.element
        # the probed bit is consumed from y
        assert y.unverified == parse_element("01")

    def test_empty_unverified_returns_nil(self):
        n = 2
        y = make_node(parse_element("10"), n)
        y.unverified = 0
        got = select_unvisited_adjacent(y, {y.element: y}, RestrictionSet(LOWER, n), RestrictionSet(UPPER, n))
        assert got is None

    def test_flags_cleared_only_by_covered_neighbours(self):
        n = 2
        y = make_node(parse_element("10"), n)
        visited = make_node(parse_element("00"), n)
        graph = {y.element: y, visited.element: visited}
        r_upper = RestrictionSet(UPPER, n)
        r_upper.update(parse_element("11"))
        got = select_unvisited_adjacent(y, graph, RestrictionSet(LOWER, n), r_upper)
        assert got is None
        assert y.adjacent & ~y.element == 0  # s2 cleared, neighbour 11 covered above
        assert y.adjacent & y.element == y.element  # 00 visited but uncovered, flag kept


class TestPruning:
    def test_lower_pruning_updates_restrictions(self):
        n = 4
        y = make_node(parse_element("0110"), n)
        graph = {y.element: y}
        r_lower = RestrictionSet(LOWER, n)
        lower_pruning(y, r_lower)
        assert r_lower.members == [parse_element("0110")]
        assert y.element in graph

    def test_lower_pruning_kills_proper_subsets_lazily(self):
        # the DFS graph is not scanned: a proper subset dies by reading tag 1
        # (covered, not a member), while y itself becomes a member
        n = 4
        y = make_node(parse_element("0110"), n)
        sub = make_node(parse_element("0100"), n)
        r_lower = RestrictionSet(LOWER, n)
        assert r_lower.covered(sub.element) == 0
        lower_pruning(y, r_lower)
        assert r_lower.covered(sub.element) == 1
        assert r_lower.covered(y.element) == 2

    def test_lower_pruning_idempotent(self):
        n = 4
        y = make_node(parse_element("0110"), n)
        r_lower = RestrictionSet(LOWER, n)
        lower_pruning(y, r_lower)
        members_once = r_lower.members
        lower_pruning(y, r_lower)
        assert r_lower.members == members_once

    def test_node_pruning_upper_neighbour_cheaper(self):
        # X=11 cheaper than its lower neighbour Y=10: Y's down interval goes
        n = 2
        costs = {0b00: 9.0, 0b01: 2.0, 0b10: 9.0, 0b11: 1.0}
        x = make_node(parse_element("11"), n)
        y = make_node(parse_element("10"), n)
        x.cost, y.cost = costs[x.element], costs[y.element]
        r_lower = RestrictionSet(LOWER, n)
        r_upper = RestrictionSet(UPPER, n)
        node_pruning(x, y, r_lower, r_upper)
        assert r_lower.members == [parse_element("10")]
        assert x.adjacent & x.element == parse_element("10")  # lost the bit toward y
        assert y.adjacent & y.element == 0
        assert not r_upper.members

    def test_node_pruning_equal_costs_fire_nothing(self):
        n = 2
        x = make_node(parse_element("11"), n)
        y = make_node(parse_element("10"), n)
        x.cost = y.cost = 1.0
        r_lower = RestrictionSet(LOWER, n)
        r_upper = RestrictionSet(UPPER, n)
        before = (x.adjacent, y.adjacent)
        node_pruning(x, y, r_lower, r_upper)
        assert not r_lower.members and not r_upper.members
        assert before == (x.adjacent, y.adjacent)

    def test_node_pruning_lower_neighbour_cheaper(self):
        # X=01 cheaper than its upper neighbour Y=11: Y's up interval goes
        n = 2
        costs = {0b00: 9.0, 0b10: 0.0, 0b01: 9.0, 0b11: 3.0}
        x = make_node(parse_element("01"), n)
        y = make_node(parse_element("11"), n)
        x.cost, y.cost = costs[x.element], costs[y.element]
        r_lower = RestrictionSet(LOWER, n)
        r_upper = RestrictionSet(UPPER, n)
        node_pruning(x, y, r_lower, r_upper)
        assert r_upper.members == [parse_element("11")]
        assert y.adjacent & ~y.element == 0
        assert x.adjacent & ~x.element == 0  # lost its only upward bit (s1)
        assert not r_lower.members

    def test_node_pruning_requires_adjacency(self):
        n = 3
        x = make_node(0b111, n)
        y = make_node(0b001, n)
        x.cost, y.cost = float(x.element), float(y.element)
        with pytest.raises(ValueError):
            node_pruning(x, y, RestrictionSet(LOWER, n), RestrictionSet(UPPER, n))


def seeded_dfs(instance, going_up=True):
    """Set up a DFS exactly as the main loop would on a fresh run."""
    n = instance.n
    ev = CostEvaluator(instance)
    r_lower = RestrictionSet(LOWER, n)
    r_upper = RestrictionSet(UPPER, n)
    full = full_set(n)
    a = minimal_element(r_lower)
    r_lower.update(a)
    node = Node(a, full ^ a)
    node.cost = ev.evaluate(a)
    dfs(node, r_lower, r_upper, ev)
    return r_lower, r_upper, ev


class TestDfs:
    def test_constant_cost_n1_exhausts_space(self):
        inst = Instance(n=1, kind="explicit", costs=(0.0, 0.0))
        r_lower, r_upper, ev = seeded_dfs(inst)
        assert set(ev.memo) >= {0, 1}
        for x in (0, 1):
            assert not in_current_space(r_lower, r_upper, x)

    def test_n2_example_collects_optimum(self, explicit_n2):
        _, _, ev = seeded_dfs(explicit_n2)
        assert parse_element("10") in ev.memo

    def test_removed_minima_always_collected(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(2, 6)
            inst = generate_decomposable_explicit(n, rng.randrange(2**30))
            ev = CostEvaluator(inst)
            r_lower = RestrictionSet(LOWER, n)
            r_upper = RestrictionSet(UPPER, n)
            # a couple of random consistent pre-restrictions
            for _ in range(rng.randint(0, 2)):
                r_lower.update(rng.randrange(1 << n))
            for _ in range(rng.randint(0, 2)):
                r_upper.update(rng.randrange(1 << n))
            a = minimal_element(r_lower)
            if a is None:
                continue
            r_lower.update(a)
            if r_upper.covers(a):
                continue
            before = {x for x in range(1 << n) if in_current_space(r_lower, r_upper, x)}
            node = Node(a, full_set(n) ^ a)
            node.cost = ev.evaluate(a)
            dfs(node, r_lower, r_upper, ev)
            after = {x for x in range(1 << n) if in_current_space(r_lower, r_upper, x)}
            removed = before - after
            if not removed:
                continue
            fn = inst.cost_function()
            floor = min(fn(x) for x in removed)
            for x in removed:
                if fn(x) == floor:
                    assert x in ev.memo, f"n={n} lost removed minimum {x:0{n}b}"

    @pytest.mark.parametrize("bitmap", [True, False])
    def test_dead_nodes_are_never_expanded_or_flushed(self, monkeypatch, bitmap):
        # a pruning call kills the visited elements it covers without making
        # them members (tag 1); dfs must skip them on its stack and never hand
        # them to a pruning call again, on both coverage paths
        if not bitmap:
            monkeypatch.setattr(ucurve.lattice, "_ACCEL_MAX_DEGREE", 0)
        pushed, killed, expanded_dead, flushed_dead = set(), set(), [], []
        kills = 0

        def watch_pruning(prune):
            # a dead node handed to one of these calls was pruned after its death
            def watched(y, r, on_event=None):
                if y.element in killed:
                    flushed_dead.append(y.element)
                prune(y, r, on_event)
                killed.update(e for e in pushed if r.covered(e) == 1)

            return watched

        def watch_select(y, graph, r_lower, r_upper):
            if y.element in killed:
                expanded_dead.append(y.element)
            return select(y, graph, r_lower, r_upper)

        def on_event(event):
            if event["event"] == "push":
                pushed.add(event["element"])

        select = ucurve.ucs.select_unvisited_adjacent
        monkeypatch.setattr(ucurve.ucs, "select_unvisited_adjacent", watch_select)
        monkeypatch.setattr(ucurve.ucs, "lower_pruning", watch_pruning(ucurve.ucs.lower_pruning))
        monkeypatch.setattr(ucurve.ucs, "upper_pruning", watch_pruning(ucurve.ucs.upper_pruning))
        for seed in range(30):
            n = 5 + seed % 4
            if seed % 2:
                inst = generate_subset_sum_instance(n, 300 + seed)
            else:
                inst = generate_decomposable_explicit(n, 300 + seed)
            r_lower = RestrictionSet(LOWER, n)
            r_upper = RestrictionSet(UPPER, n)
            assert (r_lower._cover is not None) is bitmap
            a = minimal_element(r_lower)
            r_lower.update(a)
            pushed.add(a)
            ev = CostEvaluator(inst)
            node = Node(a, full_set(n) ^ a)
            node.cost = ev.evaluate(a)
            dfs(node, r_lower, r_upper, ev, on_event)
            kills += len(killed)
            pushed.clear()
            killed.clear()
        assert kills, "no pruning call ever killed a visited element"
        assert not expanded_dead
        assert not flushed_dead


BAD_P_UPS = (1.5, -0.5, float("nan"), True, "0.5", None, [1])


class TestSelectDirection:
    """Both lattice searches draw up when random() < p_up, p_up checked once first."""

    @pytest.mark.parametrize(
        "solve, p_up",
        [pytest.param(ucs_solve, p_up, id=str(p_up)) for p_up in BAD_P_UPS]
        + [pytest.param(legacy_ucurve_solve, p_up, id=f"legacy-{p_up}") for p_up in BAD_P_UPS],
    )
    def test_solver_rejects_p_up_before_evaluating(self, solve, p_up):
        fn = generate_subset_sum_instance(5, 3).cost_function()
        evaluated = []

        def counted(x):
            evaluated.append(x)
            return fn(x)

        with pytest.raises(ValueError, match="p_up"):
            solve(5, counted, p_up=p_up)
        assert evaluated == []


class TestUcsSolve:
    def test_n2_example(self, explicit_n2):
        report = ucs_solve(2, explicit_n2, seed=3)
        assert report.minima_vectors() == ["10"]
        assert report.best_cost == 1.0

    def test_constant_cost_returns_all_subsets(self):
        inst = Instance(n=3, kind="explicit", costs=(4.0,) * 8)
        report = ucs_solve(3, inst, seed=1)
        assert len(report.minima) == 8

    def test_subset_sum_example(self):
        inst = Instance(n=3, kind="subset_sum", weights=(2, 3, 5), target=5)
        report = ucs_solve(3, inst, seed=5)
        assert report.minima_vectors() == ["001", "110"]
        assert report.best_cost == 0.0

    def test_optimal_on_random_subset_sum(self):
        for n in range(3, 10):
            for seed in range(15):
                inst = generate_subset_sum_instance(n, 31 * n + seed)
                expected_minima, expected_cost = brute_minima(inst)
                report = ucs_solve(n, inst, seed=seed)
                assert report.best_cost == expected_cost
                assert set(report.minima) == expected_minima

    def test_optimal_on_random_explicit(self):
        for seed in range(30):
            n = 3 + seed % 4
            inst = generate_decomposable_explicit(n, 1000 + seed)
            _, expected_cost = brute_minima(inst)
            assert ucs_solve(n, inst, seed=seed).best_cost == expected_cost

    def test_terminates_on_entropy_costs(self):
        for seed in range(5):
            table = generate_sample_table(6, 40, seed=seed)
            report = ucs_solve(6, mce_instance(table), seed=seed)
            assert report.minima
            assert report.computed_nodes <= 64

    def test_no_minimum_loss_instrumented(self):
        for seed in range(15):
            n = 4 + seed % 3
            inst = generate_decomposable_explicit(n, 555 + seed)
            observer = NoMinimumLossObserver(n, inst)
            ucs_solve(n, inst, seed=seed, on_event=observer)
            assert observer.updates > 0
            assert observer.violations == []

    def test_deterministic_given_seed(self):
        inst = generate_subset_sum_instance(8, 77)
        a = ucs_solve(8, inst, seed=13)
        b = ucs_solve(8, inst, seed=13)
        assert a.minima == b.minima
        assert a.computed_nodes == b.computed_nodes
        assert a.dfs_calls == b.dfs_calls
        assert a.minmax_calls == b.minmax_calls

    def test_every_evaluated_element_is_collected(self):
        # every element the solver evaluated was pushed, and the memo holds them all
        fn = generate_subset_sum_instance(7, 3).cost_function()
        evaluated = []
        minima_seen = set()

        def counted(x):
            evaluated.append(x)
            return fn(x)

        def observer(event):
            if event["event"] == "push":
                minima_seen.add(event["element"])

        report = ucs_solve(7, counted, seed=2, on_event=observer)
        assert minima_seen == set(evaluated)
        assert report.computed_nodes == len(evaluated) == len(set(evaluated))

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_budget_contract(self, budget, seed):
        inst = generate_subset_sum_instance(6, seed)
        report = ucs_solve(6, inst, seed=seed, node_budget=budget)
        assert report.computed_nodes <= budget
        if budget == 0:
            assert report.minima == [] and report.best_cost is None
        if report.budget_exhausted and budget > 0:
            assert report.minima

    def test_cost_target_stops_early(self):
        inst = generate_subset_sum_instance(9, 17)
        _, optimum = brute_minima(inst)
        unbudgeted = ucs_solve(9, inst, seed=4)
        targeted = ucs_solve(9, inst, seed=4, cost_target=optimum)
        assert targeted.target_reached
        assert targeted.best_cost <= optimum + 0  # found an element at or below target
        assert targeted.best_cost == optimum
        assert targeted.computed_nodes <= unbudgeted.computed_nodes



    def test_optimal_at_direction_extremes(self):
        for p_up in (0.0, 1.0):
            for seed in range(10):
                inst = generate_subset_sum_instance(7, 600 + seed)
                _, expected = brute_minima(inst)
                report = ucs_solve(7, inst, seed=seed, p_up=p_up)
                assert report.best_cost == expected, (p_up, seed)

    def test_optimal_on_decomposable_entropy_tables(self):
        from ucurve.cost import verify_decomposable

        checked = 0
        for seed in range(30):
            table = generate_sample_table(5, 60, seed=seed, noise=0.0)
            inst = mce_instance(table)
            if verify_decomposable(inst) is not None:
                continue
            checked += 1
            _, expected = brute_minima(inst)
            assert ucs_solve(5, inst, seed=seed).best_cost == expected
        assert checked > 0, "no decomposable entropy table found to exercise"

    def test_main_loop_shrinks_space_monotonically(self):
        n = 6
        inst = generate_subset_sum_instance(n, 8)
        r_lower = RestrictionSet(LOWER, n)
        r_upper = RestrictionSet(UPPER, n)
        sizes = []

        def observer(event):
            if event["event"] == "restrict":
                (r_lower if event["side"] == "lower" else r_upper).update(event["element"])
                sizes.append(
                    sum(1 for x in range(1 << n) if in_current_space(r_lower, r_upper, x))
                )

        ucs_solve(n, inst, seed=6, on_event=observer)
        assert sizes[-1] == 0
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_telemetry_bounds(self):
        # every solver on each kind of cost: the stopwatch samples the cheap
        # subset_sum and explicit calls and times every mce call, and its
        # estimate stays within the run's wall time
        instances = [
            generate_subset_sum_instance(8, 21),
            generate_decomposable_explicit(8, 21),
            mce_instance(generate_sample_table(8, 200, 21)),
        ]
        for inst in instances:
            for algorithm in ALGORITHMS:
                report = run_solver(algorithm, inst, seed=1)
                assert report.computed_nodes <= 2**8
                assert report.dfs_calls <= report.minmax_calls
                assert report.time_in_cost <= report.wall_time, (inst.kind, algorithm)

    @staticmethod
    def single_path_cases():
        # subset_sum n=1..12, p_up at both extremes and between,
        # unbudgeted, budgeted and stopped at the optimum
        for n in range(1, 13):
            inst = generate_subset_sum_instance(n, 40 + n)
            best = exhaustive_solve(n, inst).best_cost
            for p_up in (0, 0.3, 0.5, 1):
                for stop in ({}, {"node_budget": 2**n // 4}, {"cost_target": best}):
                    yield n, inst, dict(seed=n, p_up=p_up, **stop)

    @pytest.mark.parametrize("traced", [False, True])
    def test_blocked_tail_is_counted_not_walked(self, monkeypatch, traced):
        # the name dates from when an untraced run stopped at the cursor
        # crossing and counted its blocked tail off the draws; every run now
        # walks that tail, so traced or not there is one cursor call per
        # main-loop iteration
        calls = 0

        def counted(extreme):
            def call(r):
                nonlocal calls
                calls += 1
                return extreme(r)

            return call

        monkeypatch.setattr(ucurve.ucs, "minimal_element", counted(ucurve.lattice.minimal_element))
        monkeypatch.setattr(ucurve.ucs, "maximal_element", counted(ucurve.lattice.maximal_element))
        on_event = (lambda event: None) if traced else None
        for n, inst, kwargs in self.single_path_cases():
            calls = 0
            report = ucs_solve(n, inst, on_event=on_event, **kwargs)
            assert calls == report.minmax_calls, (n, kwargs)

    def test_traced_and_untraced_runs_agree(self):
        # a blocked iteration takes one path whether or not on_event is given,
        # so both runs give equal reports, wall-clock fields aside
        clock = ("wall_time_sec", "time_in_cost_sec", "time_other_sec")
        for n, inst, kwargs in self.single_path_cases():
            reports = []
            for on_event in (None, lambda event: None):
                d = ucs_solve(n, inst, on_event=on_event, **kwargs).to_dict()
                reports.append({k: v for k, v in d.items() if k not in clock})
            assert reports[0] == reports[1], (n, kwargs)


class TestFlagSoundnessCheck:
    """An empty flag whose neighbours are not all covered must stop the search."""

    @pytest.mark.parametrize(
        "lower_flag, upper_flag, side",
        [(0, 0b100, "lower"), (0b011, 0, "upper")],
    )
    def test_corrupted_seed_flag_raises(self, lower_flag, upper_flag, side):
        n = 3
        ev = CostEvaluator(lambda m: float(m), n=n)
        r_lower = RestrictionSet(LOWER, n)
        r_upper = RestrictionSet(UPPER, n)
        # 0b011 has uncovered neighbours on both sides, yet one flag says
        # none is left; nothing is unverified, so the seed pops at once
        seed = Node(0b011, lower_flag | upper_flag)
        seed.cost = ev.evaluate(0b011)
        seed.unverified = 0
        with pytest.raises(RuntimeError, match=f"unsound {side} flag"):
            dfs(seed, r_lower, r_upper, ev)
        assert len(r_lower) == len(r_upper) == 0

    def test_check_survives_optimized_mode(self):
        script = (
            "from ucurve.cost import CostEvaluator\n"
            "from ucurve.lattice import LOWER, UPPER, RestrictionSet\n"
            "from ucurve.ucs import Node, dfs\n"
            "assert False, 'assertions are on'\n"
            "seed = Node(0b011, 0b100)\n"
            "seed.cost = 3.0\n"
            "seed.unverified = 0\n"
            "try:\n"
            "    dfs(seed, RestrictionSet(LOWER, 3),\n"
            "        RestrictionSet(UPPER, 3), CostEvaluator(float, n=3))\n"
            "except RuntimeError as exc:\n"
            "    print('raised:', exc)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_path(), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: unsound lower flag")


class TestCoveragePathsAgree:
    """The bitmap and the antichain-scan coverage paths drive identical runs.

    No benchmark degree exceeds the bitmap limit, so this is what keeps the
    scan path honest.
    """

    @staticmethod
    def trajectories(instances, node_budget=None):
        out = []
        for seed, inst in enumerate(instances):
            events = []
            report = ucs_solve(
                inst.n, inst, seed=seed, node_budget=node_budget, on_event=events.append
            )
            out.append(
                (
                    report.computed_nodes,
                    report.minima,
                    report.best_cost,
                    report.dfs_calls,
                    report.minmax_calls,
                    events,
                )
            )
        return out

    @pytest.mark.parametrize("kind", ["subset_sum", "explicit"])
    def test_same_trajectory_on_both_paths(self, monkeypatch, kind):
        if kind == "subset_sum":
            instances = [generate_subset_sum_instance(8 + s % 3, 700 + s) for s in range(20)]
        else:
            instances = [generate_decomposable_explicit(8 + s % 3, 700 + s) for s in range(20)]
        with_bitmap = self.trajectories(instances)
        monkeypatch.setattr(ucurve.lattice, "_ACCEL_MAX_DEGREE", 0)
        assert RestrictionSet(LOWER, 8)._cover is None
        with_scan = self.trajectories(instances)
        assert with_scan == with_bitmap

    @pytest.mark.parametrize("n", [14, 16])
    def test_same_trajectory_on_both_paths_under_a_budget(self, monkeypatch, n):
        # at these degrees an insert's longest run of bits makes blocks of up to 2**n masks
        instances = [generate_subset_sum_instance(n, 900 + s) for s in range(4)]
        with_bitmap = self.trajectories(instances, node_budget=400)
        # some runs stop at the budget and some finish under it
        assert sorted(run[0] == 400 for run in with_bitmap) == [False, True, True, True]
        monkeypatch.setattr(ucurve.lattice, "_ACCEL_MAX_DEGREE", 0)
        assert RestrictionSet(LOWER, n)._cover is None
        assert self.trajectories(instances, node_budget=400) == with_bitmap


def reachable_optimum(instance):
    """Exact subset-sum optimum from the set of reachable sums."""
    sums = {0}
    for w in instance.weights:
        sums |= {s + w for s in sums}
    return min(abs(instance.target - s) for s in sums)


class TestAboveBitmapDegree:
    """Above degree 20 coverage scans the antichain and returns its tags.

    The seeds are ones that both solvers finish in a few thousand
    evaluations or fewer. Most seeds at these degrees take far more, and
    the scan makes each evaluation dearer as the antichain grows, so they
    run for seconds to minutes.
    """

    @pytest.mark.parametrize("n, seed", [(22, 4), (22, 61), (22, 70), (24, 1), (24, 27), (24, 30)])
    def test_exact_against_reachable_sums(self, n, seed):
        assert RestrictionSet(LOWER, n)._cover is None
        inst = generate_subset_sum_instance(n, seed)
        optimum = reachable_optimum(inst)
        assert ucs_solve(n, inst, seed=seed).best_cost == optimum
        assert ubb_solve(n, inst).best_cost == optimum


class TestSolversAgreeOnNoisyPlateaus:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**30),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_best_costs_agree(self, n, seed, noise):
        inst = generate_decomposable_explicit(n, seed, noise=noise)
        expected = exhaustive_solve(n, inst).best_cost
        assert ucs_solve(n, inst, seed=seed).best_cost == expected
        assert ubb_solve(n, inst).best_cost == expected
        with unittest.mock.patch.object(ucurve.lattice, "_ACCEL_MAX_DEGREE", 0):
            assert RestrictionSet(LOWER, n)._cover is None
            assert ucs_solve(n, inst, seed=seed).best_cost == expected
