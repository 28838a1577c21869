"""The ucurve benchmark: one workload, one seed, every metric by name.

Run from the root of a checkout:

    python3 perfbench/run.py --workload subset-sum-exact --seed 1 --seconds 36 --trace 0

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 the per-layer ones, from a traced process and an untraced process
that repeats the traced one's work. Each workload process is a fresh
interpreter, so timed runs execute unwrapped code. Human-readable lines
come first; the last line of standard output is the JSON result. Per-solve
records and a summary of the run are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
TIME_LIMIT = 170.0  # a run must end within 180 s
SETUP_PROBES = 4  # extra processes that only set up, for a median set-up time

sys.path.insert(0, str(HERE))

from metrics import percentile, ratio, tail_percentile  # noqa: E402
from workloads import SOLVERS, WORKLOADS  # noqa: E402


# Median time of worker.reference() on the 2-vCPU machine the benchmark was
# tuned on. Every time a workload process measures is scaled by
# REFERENCE_S / (median of its own reference samples), so times read as if
# the machine ran at that speed: a shared machine's speed drifts by 10-30 %
# from one run to the next, and the scaling takes that drift out.
REFERENCE_S = 0.0045


class WorkerFailed(Exception):
    pass


def speed_scale(out: dict) -> float:
    return REFERENCE_S / statistics.median(out["references"])


def normalized(out: dict) -> dict:
    """A copy of a workload process's output with every time scaled to REFERENCE_S."""
    k = speed_scale(out)
    out = json.loads(json.dumps(out))
    out["setup_s"] *= k
    for r in out.get("records", []):
        for key in ("wall_s", "cost_s", "solver_wall_s"):
            if key in r:
                r[key] *= k
    trace = out.get("trace")
    if trace:
        for stat in trace["spans"].values():
            stat["s"] *= k
            stat["self_s"] *= k
        if "cost.fn.s" in trace["counters"]:
            trace["counters"]["cost.fn.s"] *= k
    return out


def spawn(deadline: float, *args) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise WorkerFailed("no time left for another workload process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"workload process {args} timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"workload process {args} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# aggregation


def solves(records: list[dict]) -> list[dict]:
    """Solves that returned a report (a raised solve has no timing to use)."""
    return [r for r in records if r["kind"] == "solve" and "nodes" in r]


def per_instance_times(records: list[dict], solver: str) -> dict[str, float]:
    """Median wall time of each instance's solves by one solver, over passes."""
    times: dict[str, list[float]] = {}
    for r in solves(records):
        if r["solver"] == solver:
            times.setdefault(r["instance"], []).append(r["wall_s"])
    return {k: statistics.median(v) for k, v in times.items()}


def first_pass(records: list[dict]) -> list[dict]:
    """Each instance's first solve by each solver: first pass, first sweep."""
    return [r for r in solves(records) if r["pass"] == 0 and r.get("sweep", 0) == 0]


def best_rate(records: list[dict]) -> dict:
    """Instances where sffs matched the best cost of any solver, among those it shared."""
    by_instance: dict[str, dict[str, float]] = {}
    for r in first_pass(records):
        by_instance.setdefault(r["instance"], {})[r["solver"]] = r["best_cost"]
    shared = [costs for costs in by_instance.values() if "sffs" in costs and len(costs) > 1]
    hits = sum(1 for costs in shared if costs["sffs"] == min(costs.values()))
    return ratio(hits, len(shared))


def search_per_node(records: list[dict], solver: str) -> dict:
    """Seconds outside the cost function per computed node."""
    mine = [r for r in solves(records) if r["solver"] == solver]
    return ratio(sum(r["wall_s"] - r["cost_s"] for r in mine), sum(r["nodes"] for r in mine))


def end_to_end(main: dict, setups: list[float]) -> tuple[dict, dict, dict]:
    records = main["records"]
    values, bases, notes = {}, {}, {}
    times = {s: per_instance_times(records, s) for s in SOLVERS}
    for s in SOLVERS:
        samples = list(times[s].values())
        q = tail_percentile(len(samples))
        values[f"{s}_solve_s_p50"] = percentile(samples, 50)
        values[f"{s}_solve_s_tail"] = percentile(samples, q)
        notes[f"{s}_solve_s_p50"] = f"median of {len(samples)} instances"
        notes[f"{s}_solve_s_tail"] = f"p{q} of {len(samples)} instances"
    counted = first_pass(records)
    bases["solves_per_s"] = ratio(len(counted), sum(r["wall_s"] for r in counted))

    calls: dict[str, list[float]] = {}
    for r in records:
        if r["kind"] == "protocol" and "raised" not in r:
            calls.setdefault(r["instance"], []).append(r["wall_s"])
    if calls:
        units = [statistics.median(v) for v in calls.values()]
        notes["protocol_s"] = f"median over {len(units)} configurations of one run_benchmark call"
    else:
        shared = [k for k in times["ucs"] if all(k in times[s] for s in SOLVERS)]
        units = [sum(times[s][k] for s in SOLVERS) for k in shared]
        notes["protocol_s"] = f"median over {len(units)} instances of ucs + ubb + sffs"
    values["protocol_s"] = statistics.median(units)

    for s in SOLVERS:
        nodes = [r["nodes"] for r in counted if r["solver"] == s]
        bases[f"{s}_nodes_mean"] = ratio(sum(nodes), len(nodes))
        values[f"{s}_nodes_mean"] = bases[f"{s}_nodes_mean"]["value"]
    values["setup_s"] = statistics.median(setups)
    notes["setup_s"] = f"median of {len(setups)} workload processes"
    values["peak_rss_mb"] = main["rss_mb"]
    bases["sffs_best_rate"] = best_rate(records)
    return values, bases, notes


# (span, statistic) pairs reported as "<span>.<statistic>": calls, inclusive
# seconds (s) or self seconds (self_s)
LAYER_SPANS = (
    ("cost.evaluate", "calls"), ("cost.evaluate", "self_s"),
    ("lattice.covers", "calls"), ("lattice.covers", "s"),
    ("lattice.update", "calls"), ("lattice.update", "s"),
    ("lattice.minmax", "calls"), ("lattice.minmax", "self_s"),
    ("ucs.dfs", "calls"), ("ucs.dfs", "self_s"),
    ("ucs.select_adjacent", "calls"), ("ucs.select_adjacent", "self_s"),
    ("ucs.node_pruning", "calls"), ("ucs.node_pruning", "self_s"),
    ("ucs.restrict_pruning", "calls"), ("ucs.restrict_pruning", "self_s"),
    ("sffs.step", "calls"), ("sffs.step", "self_s"),
    ("report.conclude", "calls"), ("report.conclude", "s"),
    ("harness.prepare_instances", "s"),
    ("harness.load_instance_checked", "calls"), ("harness.load_instance_checked", "s"),
    ("harness.emit_report", "calls"), ("harness.emit_report", "s"),
    ("harness.run_solver", "self_s"),
)


def span(trace: dict, name: str, key: str) -> float:
    return trace["spans"].get(name, {}).get(key, 0)


def per_layer(traced: dict, plain: dict) -> tuple[dict, dict, dict]:
    t = traced["trace"]
    c = t["counters"]
    values, bases, notes = {}, {}, {}
    for name, key in LAYER_SPANS:
        values[f"{name}.{key}"] = span(t, name, key)
    values["cost.fn.calls"] = c.get("cost.fn.calls", 0)
    values["cost.fn.s"] = c.get("cost.fn.s", 0.0)
    values["lattice.members.peak"] = c.get("lattice.members.peak", 0)

    evaluations = values["cost.evaluate.calls"]
    bases["cost.memo_hit_ratio"] = ratio(evaluations - values["cost.fn.calls"], evaluations)
    notes["cost.memo_hit_ratio"] = "(evaluate calls - cost function calls) / evaluate calls"
    bases["lattice.update.insert_ratio"] = ratio(
        c.get("lattice.update.inserts", 0), values["lattice.update.calls"]
    )
    notes["lattice.update.insert_ratio"] = "updates that inserted / updates"
    bases["ucs.dfs_per_iteration"] = ratio(c.get("ucs.dfs_calls", 0), c.get("ucs.minmax_calls", 0))
    notes["ucs.dfs_per_iteration"] = "dfs calls / main-loop iterations"
    for s in ("ucs", "ubb"):
        bases[f"{s}.search_s_per_node"] = search_per_node(plain["records"], s)
        notes[f"{s}.search_s_per_node"] = "untraced seconds outside the cost function / computed nodes"
    bases["sffs.best_rate"] = best_rate(plain["records"])
    notes["sffs.best_rate"] = "instances where sffs matched the best cost / instances"
    traced_s = sum(r["wall_s"] for r in traced["records"])
    plain_s = sum(r["wall_s"] for r in plain["records"])
    bases["trace_overhead_frac"] = ratio(traced_s - plain_s, plain_s)
    notes["trace_overhead_frac"] = f"(traced - untraced) / untraced wall time over {traced['rounds']} rounds"
    for name, base in bases.items():
        values[name] = base["value"]
    return values, bases, notes


# ---------------------------------------------------------------------------
# the run


def outcome(runs: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    reasons = []
    for run in runs:
        for r in run["records"]:
            attempted += 1
            if r.get("why"):
                failed += 1
                reasons.append(f"{r['kind']} {r['instance']} {r.get('solver', '')}: {r['why']}")
    return attempted, failed, reasons


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT
    if args.trace:
        traced = spawn(deadline, args.workload, args.seed, "traced", args.seconds / 2)
        plain = spawn(deadline, args.workload, args.seed, "replay", 0, traced["rounds"])
        runs = [traced, plain]
        values, bases, notes = per_layer(normalized(traced), normalized(plain))
        units = declared("per_layer")
    else:
        probes = [spawn(deadline, args.workload, args.seed, "setup", 0) for _ in range(SETUP_PROBES)]
        main = spawn(deadline, args.workload, args.seed, "timed", args.seconds)
        runs = [main]
        setups = [normalized(p)["setup_s"] for p in probes + [main]]
        values, bases, notes = end_to_end(normalized(main), setups)
        units = declared("end_to_end")
    attempted, failed, reasons = outcome(runs)
    bases["failed_frac"] = ratio(failed, attempted)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    records_path = OUT / "records" / f"{run_id}.jsonl"
    with records_path.open("w") as fh:
        for run_ in runs:
            for r in run_["records"]:
                fh.write(json.dumps({"run": run_id, "workload": args.workload, **r}) + "\n")

    for name in units:
        if name not in values:
            print(f"metric {name} was not measured", file=sys.stderr)
            return 1
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    for name, unit in units.items():
        extra = notes.get(name, "")
        if name in bases:
            extra = f"{bases[name]['num']:.6g} / {bases[name]['den']:.6g}; {extra}".rstrip("; ")
        print(f"{args.workload} seed={args.seed} {name} = {values[name]:.6g} {unit}  ({extra})")
    scales = ", ".join(f"{speed_scale(r):.4f}" for r in runs)
    print(f"{args.workload} seed={args.seed} times scaled by REFERENCE_S / reference median = {scales}")
    for name in ("solves_per_s", "sffs_best_rate", "failed_frac"):
        if name in bases and name not in units:
            b = bases[name]
            print(f"{args.workload} seed={args.seed} {name} = {b['value']:.6g}  ({b['num']} / {b['den']})")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    summary = {
        "run": run_id, "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": [r["rounds"] for r in runs],
        "speed_scale": [speed_scale(r) for r in runs],
        "records": str(records_path.relative_to(ROOT)), "bases": bases, "notes": notes,
        "failures": reasons, **result,
    }
    with (OUT / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(summary) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ucurve" / "__init__.py").is_file():
        print(f"{ROOT} holds no src/ucurve package to measure", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"{ROOT} holds no BENCHMARK.json", file=sys.stderr)
        return 2
    try:
        return run(args)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
