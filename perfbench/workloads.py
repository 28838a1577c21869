"""The benchmark's workloads: their inputs, one round of work, and its checks.

Every workload is a closed loop: one caller starts the next solve only
after the previous one returned, with jobs=1, no threads and no worker
pool. Inputs come from the workload seed alone; the package receives only
the generated instances. The package is imported lazily, so that the
import is part of the workload process's set-up time.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
import time
from pathlib import Path

import checks

SOLVERS = ("ucs", "ubb", "sffs")
WEIGHT_MAX = 10_000  # the package's default subset-sum weight range, [1, 10000]
GOLDEN = 0.6180339887498949


def derive(*parts) -> int:
    """A stable sub-seed from a label path."""
    return int.from_bytes(hashlib.sha256(":".join(map(str, parts)).encode()).digest()[:8], "big")


def solve_record(solver: str, instance: str, seed: int, wall: float, report, budget) -> dict:
    return {
        "kind": "solve",
        "instance": instance,
        "solver": solver,
        "seed": seed,
        "wall_s": wall,
        "nodes": report.computed_nodes,
        "best_cost": report.best_cost,
        "budget_exhausted": report.budget_exhausted,
        "target_reached": report.target_reached,
        "budget": budget,
        "solver_wall_s": report.wall_time,
        "cost_s": report.time_in_cost,
        "dfs_calls": report.dfs_calls,
        "minmax_calls": report.minmax_calls,
        "minima": list(report.minima),
    }


def timed_solve(run_solver, solver, instance, label, seed, budget=None, **kwargs) -> dict:
    start = time.perf_counter()
    try:
        report = run_solver(solver, instance, seed=seed, node_budget=budget, **kwargs)
    except Exception as exc:  # a solve that raises counts as failed, the run goes on
        return {"kind": "solve", "instance": label, "solver": solver, "seed": seed,
                "wall_s": time.perf_counter() - start, "raised": repr(exc)}
    return solve_record(solver, label, seed, time.perf_counter() - start, report, budget)


class SolverWorkload:
    """Instances solved one at a time, in sweeps over the instance list.

    counts[s] = (instances, sweeps): solver s solves that many instances in
    each of that many sweeps per pass. Cheap solvers see more instances, so
    that every solver's timings rest on enough samples within about the
    same wall time, and they sweep three times: an instance's time is the
    median over sweeps that lie seconds apart, so a burst of load on a
    shared machine reaches at most one of its samples.
    """

    def __init__(self, name: str, kind: str, n: int, counts: dict, why: str, rows: int = 0) -> None:
        self.name = name
        self.kind = kind
        self.n = n
        self.counts = counts
        self.why = why
        self.rows = rows

    def setup(self, seed: int, workdir: Path) -> dict:
        import ucurve

        size = max(instances for instances, _ in self.counts.values())
        instances, data = [], []
        if self.kind == "subset_sum":
            # The target's position in [0, sum of weights] drives solve time
            # more than anything else, so it is stratified along a golden-ratio
            # sequence: every prefix of the instance list covers the range
            # evenly, and runs on different seeds see the same mix.
            offset = random.Random(derive(seed, self.name, "offset")).random()
            for i in range(size):
                rng = random.Random(derive(seed, self.name, i))
                weights = tuple(rng.randint(1, WEIGHT_MAX) for _ in range(self.n))
                total = sum(weights)
                target = min(int((offset + i * GOLDEN) % 1.0 * (total + 1)), total)
                instances.append(
                    ucurve.Instance(n=self.n, kind="subset_sum", weights=weights, target=target)
                )
                data.append((weights, target))
        else:
            for i in range(size):
                table = ucurve.generate_sample_table(self.n, self.rows, derive(seed, self.name, i))
                instances.append(ucurve.mce_instance(table))
                data.append(table.rows)
        from ucurve import harness

        return {
            "harness": harness,
            "instances": instances,
            "data": data,
            "seeds": [derive(seed, self.name, "run", i) for i in range(size)],
        }

    def rounds(self, state: dict) -> int:
        return len(state["instances"]) * max(sweeps for _, sweeps in self.counts.values())

    def run_round(self, state: dict, r: int) -> list[dict]:
        sweep, i = divmod(r, len(state["instances"]))
        records = []
        for s in SOLVERS:
            instances, sweeps = self.counts[s]
            if i < instances and sweep < sweeps:
                record = timed_solve(state["harness"].run_solver, s, state["instances"][i],
                                     str(i), state["seeds"][i])
                record["sweep"] = sweep
                records.append(record)
                state["tick"]()
        return records

    def check(self, state: dict, records: list[dict]) -> None:
        """Set each record's "why" to its failure, or None."""
        optimum = {}
        for record in records:
            i = int(record["instance"])
            if "raised" in record:
                record["why"] = "raised " + record["raised"]
            elif self.kind == "subset_sum":
                weights, target = state["data"][i]
                if i not in optimum:
                    optimum[i] = float(checks.subset_sum_optimum(weights, target))
                record["why"] = checks.check_solve(
                    record, lambda m: checks.subset_sum_cost(weights, target, m), optimum[i], None
                )
            else:
                rows = state["data"][i]
                record["why"] = checks.check_solve(
                    record, lambda m: checks.entropy_cost(rows, m), None, None
                )


TIME_COLUMN = re.compile(r"time")
REPLAY_BUDGET = 500  # node budget of the per-solver solves on the protocol's instances
REPLAY_SWEEPS = 3  # those solves are cheap, so each is timed in three sweeps


def counted_columns(rows: list[dict]) -> list[dict]:
    """A protocol table without its wall-clock columns."""
    return [{k: v for k, v in row.items() if not TIME_COLUMN.search(k)} for row in rows]


class ProtocolWorkload:
    """The suboptimal protocol through harness.run_benchmark, plus budgeted solves.

    One round is one protocol configuration: run_benchmark on it, then each
    of the protocol's instances, loaded through its manifest, solved by
    ucs, ubb and sffs under REPLAY_BUDGET nodes in three sweeps. The
    protocol's own node thresholds vary from instance to instance, so the
    slowest of its solves are a handful of outliers; a fixed budget gives
    per-solver times whose tail is steady across seeds. The first
    configuration is run twice, and configurations run again on later
    passes; the counted columns of all calls on one configuration must agree.
    """

    def __init__(self, name: str, sizes: tuple, per_size: int, configs: int, why: str) -> None:
        self.name = name
        self.sizes = sizes
        self.per_size = per_size
        self.configs = configs
        self.why = why

    def setup(self, seed: int, workdir: Path) -> dict:
        from ucurve import harness

        configs = [
            harness.ExperimentConfig(
                sizes=list(self.sizes),
                instances_per_size=self.per_size,
                seed=derive(seed, self.name, c),
                mode=harness.SUBOPTIMAL,
                threshold_scope="per-instance",
                jobs=1,
            )
            for c in range(self.configs)
        ]
        workdir.mkdir(parents=True, exist_ok=True)
        return {"harness": harness, "configs": configs, "workdir": workdir, "calls": 0, "instance_data": {}}

    def rounds(self, state: dict) -> int:
        return len(state["configs"])

    def run_round(self, state: dict, c: int) -> list[dict]:
        harness = state["harness"]
        config = state["configs"][c]
        records = []
        for _ in range(2 if c == 0 else 1):
            outdir = state["workdir"] / f"call{state['calls']}"
            state["calls"] += 1
            start = time.perf_counter()
            try:
                harness.run_benchmark(config, outdir)
            except Exception as exc:  # counted as a failed protocol call
                records.append({"kind": "protocol", "instance": str(c), "seed": config.seed,
                                "wall_s": time.perf_counter() - start, "raised": repr(exc)})
                shutil.rmtree(outdir, ignore_errors=True)
                return records
            wall = time.perf_counter() - start
            state["tick"]()
            records.append({
                "kind": "protocol",
                "instance": str(c),
                "seed": config.seed,
                "wall_s": wall,
                "counted": {
                    table: counted_columns(json.loads((outdir / f"{table}.json").read_text()))
                    for table in ("suboptimal_results", "suboptimal_thresholds")
                },
            })
        records.extend(self._budgeted(state, c, outdir))
        shutil.rmtree(state["workdir"])
        state["workdir"].mkdir()
        return records

    def _budgeted(self, state: dict, c: int, outdir: Path) -> list[dict]:
        harness = state["harness"]
        manifest = json.loads((outdir / "instances_manifest.json").read_text())
        loaded = []
        for name in sorted(manifest):
            instance = harness.load_instance_checked(outdir / "instances" / name, manifest[name])
            label = f"{c}/{name}"
            state["instance_data"][label] = (instance.weights, instance.target)
            loaded.append((label, instance))
        records = []
        for sweep in range(REPLAY_SWEEPS):
            for i, (label, instance) in enumerate(loaded):
                for s in SOLVERS:
                    record = timed_solve(harness.run_solver, s, instance, label,
                                         derive(state["configs"][c].seed, "run", i), REPLAY_BUDGET)
                    record["sweep"] = sweep
                    records.append(record)
                    state["tick"]()
        return records

    def check(self, state: dict, records: list[dict]) -> None:
        """Set each record's "why" to its failure, or None."""
        first: dict[str, dict] = {}
        for record in records:
            if "raised" in record:
                record["why"] = "raised " + record["raised"]
            elif record["kind"] == "protocol":
                seen = first.setdefault(record["instance"], record["counted"])
                same = record["counted"] == seen
                record["why"] = None if same else "counted columns differ between repetitions"
            else:
                weights, target = state["instance_data"][record["instance"]]
                record["why"] = checks.check_solve(
                    record,
                    lambda m: checks.subset_sum_cost(weights, target, m),
                    float(checks.subset_sum_optimum(weights, target)),
                    REPLAY_BUDGET,
                )


WORKLOADS = {
    w.name: w
    for w in (
        SolverWorkload(
            "subset-sum-exact", "subset_sum", 12,
            {"ucs": (400, 1), "ubb": (300, 3), "sffs": (400, 3)},
            "a ~1 us cost, so search overhead is nearly all the time: lattice and ucs layers",
        ),
        SolverWorkload(
            "mce-exact", "mce", 12,
            {"ucs": (28, 1), "ubb": (21, 1), "sffs": (48, 1)},
            "the paper's regime: a ~170 us entropy cost over 1000 rows is most of the time",
            rows=1000,
        ),
        ProtocolWorkload(
            "suboptimal-protocol", (12,), 40, 18,
            "short budgeted runs through run_benchmark: write-heavy lattice updates and the harness path",
        ),
    )
}
