"""Spans around the package's public functions, installed from outside.

The traced run replaces each wrapped function in every loaded ``ucurve``
module (and each wrapped method on its class) with a wrapper that counts
calls and accumulates inclusive and self time. Self time is a span's
duration minus the time covered by its child spans; the solver code calls
its helpers through module globals, so a helper called from inside a
wrapped function becomes a child span.

Spans are aggregated per name in memory instead of being kept one by one:
a single subset-sum solve makes about a million coverage queries.
"""

from __future__ import annotations

import sys
import time
from typing import Callable


class Tracer:
    """Per-name call counts, inclusive time and self time of nested spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, float] = {}
        # one accumulator per open span: the time its children covered; the
        # bottom entry collects top-level spans and is never reported
        self._frames: list[float] = [0.0]

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        clock = self.clock

        def traced(*args, **kwargs):
            frames.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                covered = frames.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - covered
                frames[-1] += duration

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def hide(self, seconds: float) -> None:
        """Keep the tracer's own bookkeeping out of the enclosing span's self time."""
        self._frames[-1] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counters.get(name, float("-inf")):
            self.counters[name] = value

    def snapshot(self) -> dict:
        spans = {
            name: {"calls": calls, "s": total, "self_s": own}
            for name, (calls, total, own) in self.stats.items()
        }
        return {"spans": spans, "counters": dict(self.counters)}


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ucurve module global bound to original at replacement."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "ucurve" or mod_name.startswith("ucurve.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# (span name, module, attribute) for module functions; the solver entry points
# are spans too, so harness.run_solver's self time is its dispatch alone
FUNCTION_SPANS = (
    ("lattice.minmax", "lattice", "minimal_element"),
    ("lattice.minmax", "lattice", "maximal_element"),
    ("ucs.solve", "ucs", "ucs_solve"),
    ("ucs.dfs", "ucs", "dfs"),
    ("ucs.select_adjacent", "ucs", "select_unvisited_adjacent"),
    ("ucs.node_pruning", "ucs", "node_pruning"),
    ("ucs.restrict_pruning", "ucs", "lower_pruning"),
    ("ucs.restrict_pruning", "ucs", "upper_pruning"),
    ("ubb.solve", "ubb", "ubb_solve"),
    ("sffs.solve", "sffs", "sffs_solve"),
    ("sffs.step", "sffs", "sfs_step"),
    ("sffs.step", "sffs", "sbs_step"),
    ("harness.run_benchmark", "harness", "run_benchmark"),
    ("harness.prepare_instances", "harness", "prepare_instances"),
    ("harness.load_instance_checked", "harness", "load_instance_checked"),
    ("harness.emit_report", "harness", "emit_report"),
    ("harness.run_solver", "harness", "run_solver"),
)

# (span name, module, class, method)
METHOD_SPANS = (
    ("cost.evaluate", "cost", "CostEvaluator", "evaluate"),
    ("lattice.covers", "lattice", "RestrictionSet", "covers"),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap the layer boundaries of the imported ucurve package.

    Returns the names of boundaries that no longer exist, so a renamed
    function shows up as a warning instead of a silent zero.
    """
    import importlib

    missing = []
    for name, mod, attr in FUNCTION_SPANS:
        module = importlib.import_module(f"ucurve.{mod}")
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{mod}.{attr}")
            continue
        _replace_everywhere(original, tracer.wrap(name, original))
    for name, mod, cls_name, meth in METHOD_SPANS:
        cls = getattr(importlib.import_module(f"ucurve.{mod}"), cls_name, None)
        if cls is None or not hasattr(cls, meth):
            missing.append(f"{mod}.{cls_name}.{meth}")
            continue
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))

    report = importlib.import_module("ucurve.report")
    original = getattr(report, "conclude", None)
    if original is None:
        missing.append("report.conclude")
    else:
        conclude = tracer.wrap("report.conclude", original)

        def traced_conclude(*args, **kwargs):
            # the finished report carries the counts no span can see: cost
            # function calls and time, and the ucs iteration split
            result = conclude(*args, **kwargs)
            tracer.count("cost.fn.calls", result.computed_nodes)
            tracer.count("cost.fn.s", result.time_in_cost)
            if result.algorithm == "ucs":
                tracer.count("ucs.dfs_calls", result.dfs_calls)
                tracer.count("ucs.minmax_calls", result.minmax_calls)
            return result

        _replace_everywhere(original, traced_conclude)

    lattice = importlib.import_module("ucurve.lattice")
    cls = getattr(lattice, "RestrictionSet", None)
    if cls is None or not hasattr(cls, "update"):
        missing.append("lattice.RestrictionSet.update")
        return missing
    plain_covers = cls.covers.__wrapped__
    update = tracer.wrap("lattice.update", cls.update)
    clock = tracer.clock

    def traced_update(self, x):
        # tell inserts from no-ops with an unwrapped coverage lookup, and
        # sample the antichain size; neither is charged to any span
        start = clock()
        inserting = not plain_covers(self, x)
        tracer.hide(clock() - start)
        update(self, x)
        start = clock()
        if inserting:
            tracer.count("lattice.update.inserts")
        tracer.peak("lattice.members.peak", len(self))
        tracer.hide(clock() - start)

    cls.update = traced_update
    return missing
