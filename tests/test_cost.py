import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucurve.cost import (
    BudgetExhausted,
    CostEvaluator,
    Instance,
    SampleTable,
    TargetReached,
    Witness,
    generate_decomposable_explicit,
    generate_sample_table,
    generate_subset_sum_instance,
    load_instance,
    mce_cost,
    mce_instance,
    parse_instance,
    save_instance,
    verify_decomposable,
)
import ucurve.cost
from conftest import subset_sum_reference
from ucurve.lattice import parse_element, render_element
from ucurve.ubb import ubb_solve


def brute_decomposable(instance):
    """Independent oracle: literally check every nested triple."""
    fn = instance.cost_function()
    size = 1 << instance.n
    cost = [fn(m) for m in range(size)]
    for y in range(size):
        for z in range(size):
            if z & ~y:
                continue
            for x in range(size):
                if y & ~x:
                    continue
                if cost[y] > max(cost[z], cost[x]):
                    return False
    return True


def subset_sum_cost(weights, target, x):
    """The cost of x under the package's one subset-sum implementation."""
    return subset_sum_kernel(weights, target)(x)


def subset_sum_kernel(weights, target):
    instance = Instance(n=len(weights), kind="subset_sum", weights=weights, target=target)
    return instance.cost_function()


class TestSubsetSumCost:
    def test_examples(self):
        w = (2, 3, 5)
        assert subset_sum_cost(w, 5, parse_element("110")) == 0.0
        assert subset_sum_cost(w, 5, 0) == 5.0
        assert subset_sum_cost(w, 5, parse_element("111")) == 5.0

    def test_empty_set_costs_target(self):
        assert subset_sum_cost((7, 1, 9, 4), 13, 0) == 13.0


class TestSubsetSumKernel:
    """The per-byte table kernel against the bit loop it replaced, kept here as the reference."""

    @given(
        st.integers(min_value=1, max_value=10),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_mask_of_small_degrees(self, n, data):
        weights = tuple(data.draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n)))
        target = data.draw(st.sampled_from([0, sum(weights)]) | st.integers(0, sum(weights)))
        fn = subset_sum_kernel(weights, target)
        for x in range(1 << n):
            value = fn(x)
            assert type(value) is float
            assert value == subset_sum_reference(weights, target, x)

    @given(st.sampled_from([9, 15, 16, 17, 24, 63, 64]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sampled_masks_across_table_boundaries(self, n, data):
        # one table, two, a partial last table, and all eight full tables
        weights = tuple(data.draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n)))
        target = data.draw(st.sampled_from([0, sum(weights)]))
        fn = subset_sum_kernel(weights, target)
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=50))
        for x in [0, (1 << n) - 1, *masks]:
            assert fn(x) == subset_sum_reference(weights, target, x)

    @pytest.mark.parametrize("n", [1, 8, 12, 64])
    def test_out_of_range_mask_rejected(self, n):
        fn = subset_sum_kernel(tuple(range(1, n + 1)), 3)
        for x in (-1, 1 << n, (1 << n) | 1):
            with pytest.raises(ValueError, match="out of range"):
                fn(x)

    def test_the_tables_are_built_per_cost_function_not_per_instance(self):
        def tables_of(fn):
            (tables,) = [c.cell_contents for c in fn.__closure__ if type(c.cell_contents) is list]
            return tables

        instance = generate_subset_sum_instance(12, 3)
        first = tables_of(instance.cost_function())
        second = tables_of(instance.cost_function())
        assert [len(table) for table in first] == [256, 16]
        assert first == second and first is not second
        assert not hasattr(instance, "__dict__")  # nothing can be cached on the instance


class TestEvaluator:
    def test_memoization_counts_distinct_elements(self):
        calls = []

        def fn(x):
            calls.append(x)
            return float(x)

        ev = CostEvaluator(fn, n=3)
        ev.evaluate(5)
        ev.evaluate(5)
        assert ev.computed_nodes == 1
        assert calls == [5]

    def test_zero_budget_stops_immediately(self):
        ev = CostEvaluator(lambda x: 0.0, n=3, node_budget=0)
        with pytest.raises(BudgetExhausted):
            ev.evaluate(1)
        assert ev.computed_nodes == 0

    def test_budget_three_allows_three_distinct(self):
        ev = CostEvaluator(float, n=3, node_budget=3)
        for x in (1, 2, 3):
            ev.evaluate(x)
        ev.evaluate(2)  # memo hit, no budget use
        with pytest.raises(BudgetExhausted):
            ev.evaluate(4)
        assert ev.computed_nodes == 3

    def test_cost_target_latches(self):
        # the value that meets the target is memoized before TargetReached
        # ends the run, so the report sees it
        ev = CostEvaluator(float, n=3, cost_target=2.0)
        assert ev.evaluate(5) == 5.0
        with pytest.raises(TargetReached):
            ev.evaluate(2)
        assert ev.memo == {5: 5.0, 2: 2.0}

    @pytest.mark.parametrize("budget", [True, False, 2.0, "3", -1])
    def test_node_budget_checked_when_built(self, budget):
        # True once ran as a budget of 1 and False as 0
        with pytest.raises(ValueError, match="node budget"):
            CostEvaluator(float, n=3, node_budget=budget)

    @pytest.mark.parametrize("target", ["5", float("nan"), True, False, 1j])
    def test_cost_target_checked_when_built(self, target):
        # "5" once raised TypeError after the first evaluation, and NaN never fired
        with pytest.raises(ValueError, match="cost target"):
            CostEvaluator(float, n=3, cost_target=target)

    def test_infinite_cost_targets_stay_valid(self):
        always = CostEvaluator(float, n=3, cost_target=float("inf"))
        with pytest.raises(TargetReached):
            always.evaluate(5)
        assert always.memo == {5: 5.0}
        never = CostEvaluator(float, n=3, cost_target=float("-inf"))
        assert [never.evaluate(x) for x in range(8)] == [float(x) for x in range(8)]
        assert never.computed_nodes == 8
        # an int past float range is met by every cost, as inf is; it once
        # raised OverflowError from the NaN check
        huge = CostEvaluator(float, n=3, cost_target=10**400)
        with pytest.raises(TargetReached):
            huge.evaluate(5)
        assert huge.memo == {5: 5.0}

    def test_stop_criteria_checked_before_the_cost_function_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(Instance, "cost_function", lambda self: built.append(self))
        with pytest.raises(ValueError, match="cost target"):
            CostEvaluator(generate_subset_sum_instance(4, 1), cost_target=float("nan"))
        assert built == []

    def test_counter_matches_independent_trace(self):
        trace = []

        def fn(x):
            trace.append(x)
            return abs(10.0 - x)

        ev = CostEvaluator(fn, n=4)
        for x in [3, 7, 3, 9, 7, 0, 3]:
            ev.evaluate(x)
        assert ev.computed_nodes == len(trace) == len(set(trace))

    @pytest.mark.parametrize("n", [5, True, 0])
    def test_degree_must_be_the_instances(self, n):
        # n=5 once took the instance's degree 7 and evaluated mask 100
        with pytest.raises(ValueError, match="does not match|degree must be"):
            CostEvaluator(generate_subset_sum_instance(7, 1), n=n)
        assert CostEvaluator(generate_subset_sum_instance(7, 1), n=7).evaluate(100) >= 0


def script_timed_calls(monkeypatch, durations):
    """Make the evaluator's timed calls take durations, in turn.

    A timed call reads the clock before and after the cost function; the
    two reads return 0 and the call's duration, so it is measured exactly.
    """

    def reads():
        for seconds in durations:
            yield 0.0
            yield seconds

    monkeypatch.setattr(ucurve.cost, "perf_counter", reads().__next__)


def timed_masks(ev, masks):
    """Evaluate masks in turn; return those the evaluator timed."""
    timed = []
    for x in masks:
        before = ev.timed_calls
        ev.evaluate(x)
        if ev.timed_calls > before:
            timed.append(x)
    return timed


CHEAP = 2.0**-20  # about 0.95 us; a power of two, so its sums are exact


class TestStopwatch:
    def test_calls_of_3us_or_more_are_each_timed(self, monkeypatch):
        # 15 cheap calls in a row between costlier ones never start sampling
        durations = ([3e-6] + [CHEAP] * 15 + [5e-6, 1e-3]) * 10
        script_timed_calls(monkeypatch, durations)
        ev = CostEvaluator(float, n=8)
        assert timed_masks(ev, range(len(durations))) == list(range(len(durations)))
        assert ev.time_in_cost() == ev.elapsed_in_cost == sum(durations)

    def test_after_16_cheap_calls_one_in_16_is_timed(self, monkeypatch):
        script_timed_calls(monkeypatch, itertools.repeat(CHEAP))
        ev = CostEvaluator(float, n=8)
        assert timed_masks(ev, range(200)) == [*range(16), *range(31, 200, 16)]
        # memo hits are neither timed nor credited
        assert timed_masks(ev, range(200)) == []
        assert ev.time_in_cost() == 200 * CHEAP

    def test_a_slow_sample_is_counted_once(self, monkeypatch):
        # a pause on the first sampled call; charged for the 15 untimed
        # calls before it as well, it would read 16 times over
        pause = 2.0**-10
        script_timed_calls(
            monkeypatch, itertools.chain([CHEAP] * 16, [pause], itertools.repeat(CHEAP))
        )
        ev = CostEvaluator(float, n=8)
        timed = timed_masks(ev, range(64))
        # the pause returns the evaluator to timing every call
        assert timed == [*range(16), 31, *range(32, 48), 63]
        assert ev.time_in_cost() == 63 * CHEAP + pause

    def test_a_3us_sample_returns_to_timing_every_call(self, monkeypatch):
        script_timed_calls(
            monkeypatch, itertools.chain([CHEAP] * 17, [3e-6], itertools.repeat(CHEAP))
        )
        ev = CostEvaluator(float, n=8)
        timed = timed_masks(ev, range(80))
        assert timed == [*range(16), 31, 47, *range(48, 64), 79]
        assert ev.time_in_cost() == pytest.approx(79 * CHEAP + 3e-6, rel=1e-12)

    def test_every_mce_evaluation_is_timed(self):
        # a table like mce-exact's: its calls take 4-290 us, none is cheap
        ev = CostEvaluator(mce_instance(generate_sample_table(12, 1000, 4000)))
        for x in ubb_preorder(12):
            ev.evaluate(x)
        assert ev.timed_calls == ev.computed_nodes == 4096
        assert ev.time_in_cost() == ev.elapsed_in_cost


KERNEL_INSTANCES = {
    "subset_sum": Instance(n=2, kind="subset_sum", weights=(2, 1), target=3),
    "explicit": Instance(n=2, kind="explicit", costs=(2.0, 1.0, 3.0, 5.0)),
    "mce": mce_instance(SampleTable(n=2, rows=((0, 0), (3, 1)))),
}


@pytest.mark.parametrize("kind", sorted(KERNEL_INSTANCES))
@pytest.mark.parametrize("mask", ["-1", "1 << n"])
def test_every_kernel_rejects_an_out_of_range_mask(kind, mask):
    # the explicit kernel once read table[-1], the full set's cost, and
    # raised IndexError at 1 << n
    instance = KERNEL_INSTANCES[kind]
    x = -1 if mask == "-1" else 1 << instance.n
    with pytest.raises(ValueError, match="out of range"):
        instance.cost_function()(x)


class TestMce:
    def test_half_bit_example(self):
        table = SampleTable(n=1, rows=((0, 0), (0, 1), (1, 0), (1, 0)))
        assert abs(mce_cost(table, 0b1) - 0.5) < 1e-12

    def test_singleton_penalty_example(self):
        table = SampleTable(n=1, rows=((0, 0), (0, 1), (1, 0)))
        assert abs(mce_cost(table, 0b1) - 1.0) < 1e-12

    def test_identical_labels_zero(self):
        table = SampleTable(n=2, rows=((0, 1), (0, 1), (3, 1), (3, 1), (1, 1), (1, 1)))
        assert mce_cost(table, 0b11) == 0.0

    def test_empty_projection_is_label_entropy(self):
        table = SampleTable(n=2, rows=((0, 0), (1, 1), (2, 0), (3, 1)))
        assert abs(mce_cost(table, 0) - 1.0) < 1e-12

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=150)
    def test_range_is_unit_interval(self, n, data):
        rows = data.draw(
            st.lists(
                st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, 1)),
                min_size=1,
                max_size=30,
            )
        )
        table = SampleTable(n=n, rows=tuple(rows))
        x = data.draw(st.integers(0, (1 << n) - 1))
        value = mce_cost(table, x)
        assert 0.0 <= value <= 1.0 + 1e-12


def ubb_preorder(n, element=0, first_bit=0):
    """Every mask in ubb's order: each comes after the mask one feature smaller."""
    yield element
    for b in range(first_bit, n):
        yield from ubb_preorder(n, element | 1 << b, b + 1)


def neighbour_walk(n, seed):
    """Masks as a floating search meets them, up and down.

    Each step asks for every neighbour of the current mask, lowest bit
    first, then moves to a seeded one of them.
    """
    rng = random.Random(seed)
    x = 0
    order = [x]
    for _ in range(1 << min(n, 6)):
        order.extend(x ^ 1 << b for b in range(n))
        x ^= 1 << rng.randrange(n)
    return order


def kernel_equals_reference(table):
    """The instance kernel against the reference scan, compared with ==.

    The kernel's slots and histograms depend on the masks it was asked for
    before, so each order gets a fresh kernel: every mask in mask order, in
    ubb's preorder, in a seeded shuffle and by descending width (supersets
    before subsets, so that every width is coarsened from), and a walk up
    and down across neighbours.
    """
    n = table.n
    reference = [mce_cost(table, x) for x in range(1 << n)]
    shuffled = list(range(1 << n))
    random.Random(table.t).shuffle(shuffled)
    descending = sorted(range(1 << n), key=int.bit_count, reverse=True)
    orders = (range(1 << n), ubb_preorder(n), shuffled, descending, neighbour_walk(n, table.t))
    for order in orders:
        fn = mce_instance(table).cost_function()
        for x in order:
            value = fn(x)
            assert value == reference[x], (x, value, reference[x])


def record_coarsenings(monkeypatch, n):
    """Make the kernel's _coarsen record each mask it coarsens: a list of (mask, source).

    The source is the mask whose cached histogram was merged, told apart by
    the histogram's identity; one that no recorded call returned is the
    full mask's, (1 << n) - 1.
    """
    import ucurve.cost as costmod

    calls = []
    made = {}  # id of each returned histogram -> (the histogram, kept alive; its mask)
    coarsen = costmod._coarsen

    def recorded(histogram, x):
        _, source = made.get(id(histogram), (None, (1 << n) - 1))
        merged = coarsen(histogram, x)
        made[id(merged)] = merged, x
        calls.append((x, source))
        return merged

    monkeypatch.setattr(costmod, "_coarsen", recorded)
    return calls


class TestMceKernel:
    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_on_small_tables(self, n, data):
        rows = data.draw(
            st.lists(
                st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, 1)),
                min_size=1,
                max_size=40,
            )
        )
        kernel_equals_reference(SampleTable(n=n, rows=tuple(rows)))

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_reference_where_the_bitsets_refine(self, n, data):
        # 64..300 rows put masks of width up to 5 on the bitset path
        rows = data.draw(
            st.lists(
                st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, 1)),
                min_size=64,
                max_size=300,
            )
        )
        kernel_equals_reference(SampleTable(n=n, rows=tuple(rows)))

    @pytest.mark.parametrize(
        "rows",
        [
            ((5, 1),),  # t = 1
            ((3, 0),) * 20 + ((1, 1),) * 20,  # duplicate rows
            tuple((x % 16, 1) for x in range(70)),  # one label only
            tuple((x % 16, int(x % 3 == 0)) for x in range(70)),  # bitsets up to width 3
        ],
    )
    def test_equals_reference_on_edge_tables(self, rows):
        kernel_equals_reference(SampleTable(n=4, rows=rows))

    @pytest.mark.parametrize("seed", [3, 8])
    def test_equals_reference_on_every_mask_of_a_wide_table(self, seed):
        kernel_equals_reference(generate_sample_table(12, 1000, seed))

    def test_no_order_calls_the_reference_scan(self, monkeypatch):
        import ucurve.cost as costmod

        calls = []
        monkeypatch.setattr(costmod, "mce_cost", lambda samples, x: calls.append(x))
        coarsened = record_coarsenings(monkeypatch, 9)
        # at 100 rows the row bound, 8 * 2**s, sends every width from 4 up
        kernel_equals_reference(generate_sample_table(9, 100, 5))
        assert {x.bit_count() for x, _ in coarsened} == set(range(4, 10))
        assert calls == []

    def test_coarsening_runs_only_outside_the_rule(self, monkeypatch):
        full = (1 << 12) - 1
        calls = record_coarsenings(monkeypatch, 12)
        table = generate_sample_table(12, 2000, 4)
        wide = mce_instance(table).cost_function()
        for x in range(1 << 12):
            if x.bit_count() <= 6:
                wide(x)
        assert calls == []
        # slot 6 holds the last mask of width 6, features 6-11, so each of
        # these is coarsened from the full mask's histogram
        sevens = [x for x in range(1 << 12) if x.bit_count() == 7][:5]
        for x in sevens:
            assert wide(x) == mce_cost(table, x)
        assert calls == [(x, full) for x in sevens]
        # the row bound: width 6 needs 8 * 2**6 = 512 rows
        del calls[:]
        six = 0b111111
        short = generate_sample_table(12, 511, 4)
        assert mce_instance(short).cost_function()(six) == mce_cost(short, six)
        assert calls == [(six, full)]
        del calls[:]
        mce_instance(generate_sample_table(12, 512, 4)).cost_function()(six)
        assert calls == []

    @pytest.mark.parametrize("seed", [3, 8])
    def test_ubb_never_scans_the_rows(self, monkeypatch, seed):
        # ubb evaluates a mask after its subset one feature smaller and after
        # no other mask of that width, so it always refines from the slot
        # below: it never coarsens, so it never builds the full mask's
        # histogram either
        calls = record_coarsenings(monkeypatch, 12)
        fn = mce_instance(generate_sample_table(12, 1000, seed)).cost_function()
        order = []

        def recorded(x):
            order.append(x)
            return fn(x)

        ubb_solve(12, recorded)
        assert max(x.bit_count() for x in order) > 6
        assert calls == []

    def test_a_sibling_in_the_slot_below_is_not_refined(self, monkeypatch):
        full = (1 << 12) - 1
        calls = record_coarsenings(monkeypatch, 12)
        table = generate_sample_table(12, 1000, 4)
        fn = mce_instance(table).cost_function()
        # slot 1 holds {1} when {0, 2} comes: refined from all rows instead
        for x in (0b1, 0b10, 0b101):
            assert fn(x) == mce_cost(table, x)
        # slot 3 is empty and slot 2 holds {0, 2} when {0, 1, 2, 3} comes:
        # refined from slot 2 by features 1 and 3
        assert fn(0b1111) == mce_cost(table, 0b1111)
        assert calls == []
        # slot 6 holds features 0-5 when features 1-7 come: too wide to
        # refine from slot 1, so coarsened from the full mask's histogram
        six, sibling = 0b111111, 0b11111110
        for x in (six, six | 1 << 6):
            assert fn(x) == mce_cost(table, x)
        assert calls == []
        assert fn(sibling) == mce_cost(table, sibling)
        assert calls == [(sibling, full)]
        # each later mask is coarsened from the narrowest cached superset:
        # features 1-11, then 2-11 from it, 3-11 from 2-11, and features 1
        # and 3-8 from 1-11, the one superset among the three narrower masks
        del calls[:]
        masks = (0xFFE, 0xFFC, 0xFF8, 0x1FA)
        for x in masks:
            assert fn(x) == mce_cost(table, x)
        assert calls == list(zip(masks, (full, 0xFFE, 0xFFC, 0xFFE)))

    def test_the_last_eight_coarsened_histograms_are_kept(self, monkeypatch):
        full = (1 << 12) - 1
        calls = record_coarsenings(monkeypatch, 12)
        table = generate_sample_table(12, 1000, 4)
        elevens = [full ^ 1 << b for b in range(12)]
        for kept in (True, False):
            fn = mce_instance(table).cost_function()
            # eight masks of width 11 after the first keep it; a ninth evicts it
            for x in elevens[: 8 if kept else 9]:
                fn(x)
            # features 1-10, a subset of the first mask only
            del calls[:]
            assert fn(0x7FE) == mce_cost(table, 0x7FE)
            assert calls == [(0x7FE, elevens[0] if kept else full)]

    @pytest.mark.parametrize("x", [-1, 1 << 12, 1 << 40])
    def test_out_of_range_mask_rejected(self, x):
        table = generate_sample_table(12, 1000, 2)
        with pytest.raises(ValueError, match="out of range"):
            mce_cost(table, x)
        with pytest.raises(ValueError, match="out of range"):
            mce_instance(table).cost_function()(x)


class TestSampleTableRows:
    @pytest.mark.parametrize("label", [1.0, 0.0, True, False, "1", None, 2])
    def test_label_must_be_int_zero_or_one(self, label):
        with pytest.raises(ValueError, match="label"):
            SampleTable(n=1, rows=((0, 1), (1, label)))

    @pytest.mark.parametrize("mask", [1.0, "1", None, True])
    def test_row_mask_must_be_int(self, mask):
        with pytest.raises(ValueError, match="mask"):
            SampleTable(n=1, rows=((mask, 1), (1, 0)))


class TestSubsetSumInputs:
    @pytest.mark.parametrize("bad", [float("nan"), 1.5, True, 1.0])
    def test_weights_must_be_ints(self, bad):
        with pytest.raises(ValueError, match="ints"):
            Instance(n=2, kind="subset_sum", weights=(bad, 1), target=1)

    @pytest.mark.parametrize("bad", [1.0, float("inf"), float("nan"), False])
    def test_target_must_be_int(self, bad):
        with pytest.raises(ValueError, match="ints"):
            Instance(n=2, kind="subset_sum", weights=(2, 1), target=bad)


class TestBoolDegree:
    # True is an int equal to 1, and each of these once took it for degree 1
    def test_instance_rejects_a_bool_degree(self):
        with pytest.raises(ValueError, match="degree"):
            Instance(n=True, kind="subset_sum", weights=(3,), target=1)

    def test_sample_table_rejects_a_bool_degree(self):
        with pytest.raises(ValueError, match="degree"):
            SampleTable(n=True, rows=((1, 0), (0, 1)))

    def test_load_instance_rejects_a_bool_degree(self, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"n": True, "kind": "subset_sum", "weights": [3], "target": 1}))
        with pytest.raises(ValueError, match="'n'"):
            load_instance(path)

    def test_evaluator_rejects_a_bool_degree(self):
        with pytest.raises(ValueError, match="degree"):
            CostEvaluator(float, n=True)


class TestVerifyDecomposable:
    def test_constant_ok(self):
        inst = Instance(n=3, kind="explicit", costs=(1.0,) * 8)
        assert verify_decomposable(inst) is None

    def test_subset_sum_ok_and_matches_brute_force(self):
        for seed in range(5):
            inst = generate_subset_sum_instance(5, seed, weight_max=9)
            costs = tuple(inst.cost_function()(m) for m in range(32))
            explicit = Instance(n=5, kind="explicit", costs=costs)
            assert verify_decomposable(explicit) is None
            assert brute_decomposable(explicit)

    def test_witness_example(self):
        inst = Instance(n=2, kind="explicit", costs=(0.0, 5.0, 0.0, 0.0))
        witness = verify_decomposable(inst)
        assert witness == Witness(z=0b00, y=0b01, x=0b11)

    def test_sampled_finds_violation_too(self):
        inst = Instance(n=2, kind="explicit", costs=(0.0, 5.0, 0.0, 0.0))
        witness = verify_decomposable(inst, mode="sampled", chains=50, seed=1)
        assert witness is not None
        z, y, x = witness
        fn = inst.cost_function()
        assert z & ~y == 0 and y & ~x == 0
        assert fn(y) > max(fn(z), fn(x))

    @pytest.mark.parametrize("chains", [-5, 0])
    def test_sampled_needs_a_chain(self, chains):
        # with no chain to check, a table with a hump once passed as U-shaped
        inst = Instance(n=2, kind="explicit", costs=(0.0, 5.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="chain"):
            verify_decomposable(inst, mode="sampled", chains=chains)

    def test_sampled_evaluates_each_distinct_mask_once(self, monkeypatch):
        import random

        calls = []
        cost_function = Instance.cost_function

        def counted(instance):
            fn = cost_function(instance)

            def wrapped(x):
                calls.append(x)
                return fn(x)

            return wrapped

        monkeypatch.setattr(Instance, "cost_function", counted)
        inst = generate_subset_sum_instance(8, 5)  # U-shaped: every chain is walked
        assert verify_decomposable(inst, mode="sampled", chains=120, seed=3) is None
        rng = random.Random(3)
        order = list(range(8))
        masks = {0}
        for _ in range(120):
            rng.shuffle(order)
            m = 0
            for b in order:
                m |= 1 << b
                masks.add(m)
        assert len(calls) == len(masks) < 9 * 120
        assert set(calls) == masks

    @pytest.mark.parametrize(
        "seed, triple",
        [(0, (446, 959, 1023)), (1, (1001, 1019, 1023)), (2, (764, 1022, 1023)), (3, (506, 1019, 1023))],
    )
    def test_sampled_witness_on_mce_tables(self, seed, triple):
        # triples found by the unmemoized chain walk over the reference scan
        inst = mce_instance(generate_sample_table(10, 300, seed))
        assert verify_decomposable(inst, mode="sampled", chains=200, seed=seed) == Witness(*triple)

    def test_exhaustive_capped(self):
        inst = generate_subset_sum_instance(11, 0)
        with pytest.raises(ValueError):
            verify_decomposable(inst)

    def test_witness_agrees_with_brute_force_on_random_tables(self):
        import random

        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 5)
            costs = tuple(float(rng.randint(0, 4)) for _ in range(1 << n))
            inst = Instance(n=n, kind="explicit", costs=costs)
            witness = verify_decomposable(inst)
            assert (witness is None) == brute_decomposable(inst)
            if witness is not None:
                fn = inst.cost_function()
                z, y, x = witness
                assert z & ~y == 0 and y & ~x == 0
                assert fn(y) > max(fn(z), fn(x))


class TestGenerators:
    def test_subset_sum_deterministic(self):
        a = generate_subset_sum_instance(8, 42)
        b = generate_subset_sum_instance(8, 42)
        assert a == b

    def test_subset_sum_decomposable_small(self):
        for seed in range(10):
            inst = generate_subset_sum_instance(6, seed)
            costs = tuple(inst.cost_function()(m) for m in range(64))
            assert verify_decomposable(Instance(n=6, kind="explicit", costs=costs)) is None

    def test_large_instances_mostly_distinct(self):
        seen = {generate_subset_sum_instance(18, seed) for seed in range(100)}
        assert len(seen) >= 99

    def test_explicit_generator_is_verified_and_deterministic(self):
        a = generate_decomposable_explicit(5, 123)
        b = generate_decomposable_explicit(5, 123)
        assert a == b
        assert verify_decomposable(a) is None
        assert brute_decomposable(a)

    def test_plateau_tables_above_degree_ten_need_no_exhaustive_check(self):
        # noise 0 is U-shaped by construction, so no verification caps the degree
        table = generate_decomposable_explicit(12, 5)
        assert table.n == 12
        assert verify_decomposable(table, mode="sampled", chains=200, seed=1) is None

    def test_noisy_tables_above_degree_ten_are_refused_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a random number")

        monkeypatch.setattr(random.Random, "randint", no_draws)
        with pytest.raises(ValueError, match="noise is verified exhaustively, only up to degree 10"):
            generate_decomposable_explicit(11, 0, noise=0.3)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            pytest.param({"noise": -1.0}, "noise", id="negative-noise"),
            pytest.param({"noise": float("nan")}, "noise", id="nan-noise"),
            pytest.param({"noise": float("inf")}, "noise", id="inf-noise"),
            pytest.param({"weight_max": -1}, "weight_max", id="negative-weight_max"),
            pytest.param({"noise": 7.0}, "too large", id="noise-too-large"),
        ],
    )
    def test_explicit_generator_rejects_bad_input(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            generate_decomposable_explicit(5, 1, **kwargs)

    def test_sample_table_generator(self):
        t1 = generate_sample_table(6, 50, seed=3)
        t2 = generate_sample_table(6, 50, seed=3)
        assert t1 == t2
        assert t1.t == 50
        assert all(0 <= x < 64 for x, _ in t1.rows)

    @pytest.mark.parametrize("noise", [7.0, -0.1, 1.5, float("nan")])
    def test_sample_table_rejects_noise_that_is_not_a_probability(self, noise):
        with pytest.raises(ValueError, match="noise"):
            generate_sample_table(6, 50, seed=3, noise=noise)


class TestInstanceFiles:
    def test_subset_sum_round_trip(self, tmp_path):
        inst = generate_subset_sum_instance(7, 11)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_explicit_round_trip(self, tmp_path):
        inst = generate_decomposable_explicit(4, 9)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_explicit_requires_total_table(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"n": 2, "kind": "explicit", "costs": {"00": 1.0}}))
        with pytest.raises(ValueError):
            load_instance(path)

    def test_degree_cap_enforced(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 65, "kind": "subset_sum", "weights": [], "target": 0}))
        with pytest.raises(ValueError):
            load_instance(path)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            Instance(n=2, kind="subset_sum", weights=(1, -1), target=3)
        with pytest.raises(ValueError):
            Instance(n=1, kind="explicit", costs=(0.0, -2.0))

    def test_sample_file_round_trip(self, tmp_path):
        table = generate_sample_table(4, 20, seed=1)
        path = tmp_path / "samples.txt"
        save_instance(mce_instance(table), path)
        assert load_instance(path).samples == table

    def test_sample_header_validated(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("n=3 t=5\n010 1\n")
        with pytest.raises(ValueError):
            load_instance(path)

    def test_sample_rows_validated(self, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("010 2\n")
        with pytest.raises(ValueError):
            load_instance(path)

    def test_an_mce_instance_is_saved_as_its_sample_file(self, tmp_path):
        table = generate_sample_table(5, 30, seed=2)
        path = tmp_path / "a.txt"
        save_instance(mce_instance(table), path)
        rows = "".join(f"{render_element(x, 5)} {y}\n" for x, y in table.rows)
        assert path.read_bytes() == f"n=5 t=30\n{rows}".encode()
        assert load_instance(path) == mce_instance(table)

    @pytest.mark.parametrize(
        "name, instance",
        [
            ("x.json", mce_instance(generate_sample_table(4, 10, seed=1))),
            ("x", mce_instance(generate_sample_table(4, 10, seed=1))),
            ("y.txt", generate_subset_sum_instance(4, 1)),
            ("z.txt", generate_decomposable_explicit(3, 1)),
        ],
        ids=["mce-json", "mce-bare", "subset_sum-txt", "explicit-txt"],
    )
    def test_save_instance_refuses_a_suffix_its_reader_would_misread(
        self, tmp_path, name, instance
    ):
        path = tmp_path / name
        with pytest.raises(ValueError, match="end in .txt") as caught:
            save_instance(instance, path)
        assert str(caught.value).startswith(f"{path}: ")
        assert not path.exists()

    @pytest.mark.parametrize("name", ["latin.json", "latin.txt"])
    def test_a_file_that_is_not_utf8_is_an_error_that_names_it(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValueError, match="utf-8") as caught:
            load_instance(path)
        assert str(caught.value).startswith(f"{path}: ")
        assert str(caught.value).count(str(path)) == 1

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("bad.json", "{not json", "not valid JSON"),
            ("list.json", "[]", "must hold a JSON object"),
            ("big.json", '{"n": 65, "kind": "subset_sum", "weights": [], "target": 0}', "degree"),
            (
                "negative.json",
                '{"n": 2, "kind": "subset_sum", "weights": [1, -1], "target": 0}',
                "weights and target must be non-negative",
            ),
            (
                "key.json",
                '{"n": 1, "kind": "explicit", "costs": {"0": 1.0, "11": 2.0}}',
                "width-1 vector",
            ),
            ("kind.json", '{"n": 1, "kind": "made-up"}', "unknown instance kind"),
            ("empty.txt", "n=3 t=0\n", "at least one row"),
        ],
        ids=["json", "object", "degree", "negative-weight", "key", "kind", "txt-no-rows"],
    )
    def test_parse_instance_errors_name_the_file_once(self, name, text, message):
        with pytest.raises(ValueError, match=message) as caught:
            parse_instance(text.encode(), name)
        assert str(caught.value).startswith(f"{name}: ")
        assert str(caught.value).count(name) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty sample file"),
            ("n=3 t=0\n", "a sample table needs at least one row"),
            ("0" * 70 + " 1\n", "characteristic vector must have 1..64 characters"),
            ("n=3 t=x\n010 1\n", "malformed header"),
            ("n=3 t=5\n010 1\n", "header declares t=5"),
            ("010 2\n", "malformed sample row"),
            ("n=3 t=1\n0101 1\n", "width-3 vector"),
            ("n=0 t=0\n", "degree must be an int"),
        ],
        ids=["empty", "no-rows", "row-of-70", "header", "count", "label", "width", "degree"],
    )
    def test_parse_samples_errors_name_the_file_once(self, tmp_path, text, message):
        path = tmp_path / "samples.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as caught:
            load_instance(path)
        assert str(caught.value).startswith(f"{path}: ")
        assert str(caught.value).count(str(path)) == 1


class TestNonFiniteCosts:
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="huge-int")]
    )
    def test_explicit_table_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Instance(n=1, kind="explicit", costs=(bad, 1.0))

    @pytest.mark.parametrize("bad", ["1", None, True])
    def test_explicit_table_rejects_non_numeric(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Instance(n=1, kind="explicit", costs=(0.0, bad))

    @pytest.mark.parametrize(
        "weights, target",
        [((1, 10**400), 0), ((10**308, 10**308), 5), ((1, 2), 10**400)],
        ids=["weight", "sum", "target"],
    )
    def test_subset_sum_past_float_range_is_rejected(self, weights, target):
        # its costs, |target - sum|, reach max(target, sum of the weights)
        with pytest.raises(ValueError, match="finite"):
            Instance(n=2, kind="subset_sum", weights=weights, target=target)

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 2, "kind": "subset_sum", "weights": [1, 10**400], "target": 0},
            {"n": 1, "kind": "explicit", "costs": {"0": 1.0, "1": 10**400}},
        ],
        ids=["subset_sum", "explicit"],
    )
    def test_parse_instance_rejects_a_number_past_float_range(self, payload):
        # it once raised OverflowError, which the CLI does not catch
        with pytest.raises(ValueError, match="finite"):
            parse_instance(json.dumps(payload).encode(), "huge.json")

    def test_load_instance_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.json"
        costs = {"00": float("nan"), "10": 1.0, "01": 0.5, "11": 2.0}
        path.write_text(json.dumps({"n": 2, "kind": "explicit", "costs": costs}))
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError, match="finite"):
            load_instance(path)

    @pytest.mark.parametrize(
        "bad", [None, float("nan"), float("inf"), "1.0", False, pytest.param(10**400, id="huge-int")]
    )
    def test_bare_callable_value_checked(self, bad):
        ev = CostEvaluator(lambda x: bad, n=2)
        with pytest.raises(ValueError, match="finite"):
            ev.evaluate(1)
        assert ev.computed_nodes == 0

    def test_bare_callable_finite_values_pass(self):
        ev = CostEvaluator(lambda x: x if x % 2 else float(x), n=3)
        assert [ev.evaluate(x) for x in range(4)] == [0.0, 1, 2.0, 3]

    def test_instance_cost_function_runs_unwrapped(self):
        inst = generate_subset_sum_instance(6, 3)
        ev = CostEvaluator(inst)
        assert ev.fn.__name__ == "subset_sum"

    def test_every_solver_rejects_a_nan_callable(self):
        # the ValueError is raised inside the solver's run, and the evaluator's
        # exit must let it through: it swallows only its two stops
        from ucurve.oracle import exhaustive_solve, legacy_ucurve_solve
        from ucurve.sffs import sffs_solve
        from ucurve.ubb import ubb_solve
        from ucurve.ucs import ucs_solve

        def fn(x):
            return float("nan")

        for solve in (ucs_solve, ubb_solve, sffs_solve, exhaustive_solve, legacy_ucurve_solve):
            with pytest.raises(ValueError, match="finite"):
                solve(2, fn)
