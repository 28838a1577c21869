"""Checks of the benchmark's own arithmetic on tiny inputs.

    python3 perfbench/selftest.py

Needs neither the package nor a timed run: it covers tail-percentile
selection, self-time subtraction over nested spans, the aggregation of
per-solve records into metrics, and that every ratio carries its base.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from metrics import (  # noqa: E402
    paired_claim,
    percentile,
    samples_beyond,
    spread,
    tail_percentile,
    verdict,
)
from tracing import Tracer  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_known_counts(self):
        self.assertEqual(tail_percentile(11), 9)
        self.assertEqual(tail_percentile(20), 52)
        self.assertEqual(tail_percentile(100), 90)

    def test_ten_distinct_samples_beyond_and_no_higher_percentile(self):
        for count in range(11, 300):
            values = list(range(count))
            q = tail_percentile(count)
            above = sum(1 for v in values if v > percentile(values, q))
            self.assertGreaterEqual(above, 10, count)
            self.assertEqual(above, samples_beyond(count, q))
            if q < 99:
                self.assertLess(samples_beyond(count, q + 1), 10, count)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            tail_percentile(10)

    def test_percentile_interpolates(self):
        self.assertEqual(percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(percentile([1, 2, 3, 4, 5], 100), 5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


class SelfTime(unittest.TestCase):
    def test_three_levels(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def inner():
            clock.tick(5)

        def middle():
            clock.tick(3)
            inner_()
            tracer.hide(0.5)  # bookkeeping the middle span must not own
            clock.tick(4.5)

        def outer():
            clock.tick(1)
            middle_()
            clock.tick(2)

        inner_ = tracer.wrap("inner", inner)
        middle_ = tracer.wrap("middle", middle)
        tracer.wrap("outer", outer)()
        spans = tracer.snapshot()["spans"]
        self.assertEqual(spans["outer"], {"calls": 1, "s": 15.5, "self_s": 3.0})
        self.assertEqual(spans["middle"], {"calls": 1, "s": 12.5, "self_s": 7.0})
        self.assertEqual(spans["inner"], {"calls": 1, "s": 5.0, "self_s": 5.0})

    def test_exception_still_closes_the_span(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def fails():
            clock.tick(2)
            raise KeyError

        wrapped = tracer.wrap("fails", fails)

        def caller():
            clock.tick(1)
            try:
                wrapped()
            except KeyError:
                pass

        tracer.wrap("caller", caller)()
        spans = tracer.snapshot()["spans"]
        self.assertEqual(spans["fails"]["s"], 2)
        self.assertEqual(spans["caller"]["self_s"], 1)


def solve(instance, solver, wall, nodes, best, pass_=0, cost_s=0.0):
    return {"kind": "solve", "instance": str(instance), "solver": solver, "wall_s": wall,
            "nodes": nodes, "best_cost": best, "pass": pass_, "cost_s": cost_s}


def declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


class Aggregation(unittest.TestCase):
    def records(self):
        out = []
        for i in range(12):
            out.append(solve(i, "ucs", 1.0 + i, 100 + i, 0.0))
            out.append(solve(i, "ubb", 0.5, 200, 0.0))
            out.append(solve(i, "sffs", 0.25, 30, 0.0 if i < 3 else 1.0))
        # a second pass over instance 0 only: its medians move, its counts do not
        out.append(solve(0, "ucs", 3.0, 100, 0.0, pass_=1))
        return out

    def test_end_to_end(self):
        main = {"records": self.records(), "rss_mb": 20.0}
        values, bases, notes = run.end_to_end(main, [0.3, 0.1, 0.2])
        ucs = sorted([2.0] + [1.0 + i for i in range(1, 12)])
        self.assertEqual(values["ucs_solve_s_p50"], percentile(ucs, 50))
        self.assertEqual(values["ucs_solve_s_tail"], percentile(ucs, 18))
        self.assertEqual(notes["ucs_solve_s_tail"], "p18 of 12 instances")
        self.assertEqual(values["ucs_nodes_mean"], sum(100 + i for i in range(12)) / 12)
        self.assertEqual(bases["solves_per_s"]["value"], 36 / (sum(1.0 + i for i in range(12)) + 12 * 0.75))
        self.assertEqual(values["protocol_s"], percentile([u + 0.75 for u in ucs], 50))
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(bases["sffs_best_rate"]["value"], 3 / 12)
        self.assertEqual(set(values), set(declared("end_to_end")))

    def test_per_layer(self):
        snapshot = {
            "spans": {"cost.evaluate": {"calls": 1000, "s": 2.0, "self_s": 2.0},
                      "lattice.update": {"calls": 40, "s": 1.0, "self_s": 0.5}},
            "counters": {"cost.fn.calls": 250, "cost.fn.s": 1.5, "lattice.update.inserts": 10,
                         "ucs.dfs_calls": 3, "ucs.minmax_calls": 12},
        }
        traced = {"trace": snapshot, "records": self.records(), "rounds": 12}
        plain = {"records": [dict(r, wall_s=r["wall_s"] / 2) for r in self.records()]}
        values, bases, _ = run.per_layer(traced, plain)
        self.assertEqual(values["cost.memo_hit_ratio"], 0.75)
        self.assertEqual(values["lattice.update.insert_ratio"], 0.25)
        self.assertEqual(values["ucs.dfs_per_iteration"], 0.25)
        self.assertAlmostEqual(values["trace_overhead_frac"], 1.0)
        self.assertEqual(values["harness.emit_report.calls"], 0)
        self.assertEqual(set(values), set(declared("per_layer")))

    def test_every_ratio_carries_its_base(self):
        main = {"records": self.records(), "rss_mb": 20.0}
        _, bases, _ = run.end_to_end(main, [0.1])
        snapshot = {"spans": {}, "counters": {}}
        _, layer_bases, _ = run.per_layer(
            {"trace": snapshot, "records": self.records(), "rounds": 1}, {"records": self.records()}
        )
        for base in list(bases.values()) + list(layer_bases.values()):
            expected = base["num"] / base["den"] if base["den"] else 0.0
            self.assertEqual(base["value"], expected)
        for kind, found in (("end_to_end", bases), ("per_layer", layer_bases)):
            for name, meta in declared(kind).items():
                if meta["unit"] in ("ratio", "1/s", "s/node"):
                    self.assertIn(name, found, name)


class Verdicts(unittest.TestCase):
    def test_spread(self):
        self.assertAlmostEqual(spread([1, 2, 3, 4, 5]), (4.5 - 1.5) / 3)

    def test_verdicts(self):
        old = [1.0, 1.01, 0.99, 1.02, 0.98]
        self.assertEqual(verdict(old, [v * 0.5 for v in old], "lower", 0.1), "better")
        self.assertEqual(verdict(old, [v * 2 for v in old], "lower", 0.1), "worse")
        self.assertEqual(verdict(old, [1.0, 1.02, 0.99, 1.01, 1.03], "lower", 0.1), "within bound")
        noisy = [1.0, 2.0, 0.5, 1.5, 3.0]
        self.assertEqual(verdict(noisy, [1.1, 1.9, 0.6, 1.4, 2.9], "lower", 0.1), "unresolved")

    def test_paired_claim(self):
        pairs = [(1.0 + i / 100, 0.8) for i in range(10)]
        self.assertTrue(paired_claim(pairs, "lower")["met"])
        pairs[0] = (0.7, 0.8)
        pairs[1] = (0.7, 0.8)
        self.assertFalse(paired_claim(pairs, "lower")["met"])  # 8 of 10 wins


class Oracles(unittest.TestCase):
    def test_subset_sum_optimum(self):
        self.assertEqual(checks.subset_sum_optimum([3, 5, 9], 8), 0)
        self.assertEqual(checks.subset_sum_optimum([3, 5, 9], 7), 1)
        self.assertEqual(checks.subset_sum_optimum([10], 100), 90)

    def test_entropy_cost(self):
        rows = [(0b01, 0), (0b01, 1), (0b10, 1)]
        # mask 0b01: pattern 1 seen twice with mixed labels (1 bit), pattern 0 once
        self.assertAlmostEqual(checks.entropy_cost(rows, 0b01), 2 / 3 * 1.0 + 1 / 3)
        self.assertAlmostEqual(checks.entropy_cost(rows, 0b00), 3 / 3 * 0.9182958340544896)


if __name__ == "__main__":
    unittest.main()
