"""Experiment runner: optimal / suboptimal comparison protocols and dynamics.

Instances are materialized as files with a hash manifest; every protocol
step re-reads them through the manifest so all steps provably consume the
same inputs. Reports are emitted as CSV and JSON with fixed column order
and fixed rounding, byte-stable for identical inputs. Wall-clock columns
are only meaningful (and only emitted) for jobs=1 runs; node counts stay
valid under a worker pool.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Sequence

from . import cost as costmod
from .cost import Instance, mce_instance, parse_instance, save_instance
from .lattice import MAX_DEGREE
from .oracle import EXHAUSTIVE_MAX_DEGREE, exhaustive_solve, legacy_ucurve_solve
from .record import Record
from .report import SearchReport
from .sffs import sffs_solve
from .ubb import ubb_solve
from .ucs import DEFAULT_P_UP, check_p_up, ucs_solve

OPTIMAL = "optimal"
SUBOPTIMAL = "suboptimal"
DYNAMICS = "dynamics"

# name -> solver(instance, seed, p_up, on_event=, node_budget=, cost_target=).
# Only ucs takes on_event; the others drop it, since run_solver refuses a
# callback for them. Each entry calls its solver through the module global,
# so a wrapper installed on that global sees the call.
SOLVERS: dict[str, Callable[..., SearchReport]] = {
    "ucs": lambda inst, seed, p_up, **kw: ucs_solve(inst.n, inst, seed=seed, p_up=p_up, **kw),
    "ubb": lambda inst, seed, p_up, on_event, **kw: ubb_solve(inst.n, inst, **kw),
    "sffs": lambda inst, seed, p_up, on_event, **kw: sffs_solve(inst.n, inst, **kw),
    "exhaustive": lambda inst, seed, p_up, on_event, **kw: exhaustive_solve(inst.n, inst, **kw),
    "ucurve-legacy": lambda inst, seed, p_up, on_event, **kw: legacy_ucurve_solve(
        inst.n, inst, seed=seed, p_up=p_up, **kw
    ),
}

ALGORITHMS = tuple(SOLVERS)

_REPORT_FORMATS = ("csv", "json")


def derive_seed(*parts) -> int:
    """Stable sub-seed from a root seed and a label path (hash-randomization safe)."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


_DEFAULT_ALGORITHMS = ("ucs", "ubb", "sffs")


class ExperimentConfig(Record):
    """One experiment protocol run: sizes, instances, solvers, mode and output options.

    A plain Record: built by keyword, compared field by field, and copied
    with changes by replace(), which checks the copy again. Every field's
    type and range is checked when it is built, so that a bad config fails
    before anything is written.
    """

    __slots__ = (
        "sizes",
        "instances_per_size",
        "seed",
        "algorithms",
        "cost_kind",
        "mode",
        "threshold_scope",
        "weight_max",
        "sample_rows",
        "p_up",
        "jobs",
        "include_times",
    )

    def __init__(
        self,
        sizes: list[int],
        instances_per_size: int = 100,
        seed: int = 0,
        algorithms: list[str] = _DEFAULT_ALGORITHMS,
        cost_kind: str = costmod.SUBSET_SUM,
        mode: str = OPTIMAL,
        threshold_scope: str = "mean",  # or "per-instance"
        weight_max: int = costmod.DEFAULT_WEIGHT_MAX,
        sample_rows: int = costmod.DEFAULT_SAMPLE_ROWS,
        p_up: float = DEFAULT_P_UP,
        jobs: int = 1,
        include_times: bool = True,
    ) -> None:
        self.sizes = sizes
        self.instances_per_size = instances_per_size
        self.seed = seed
        # a fresh list for each config built with the default
        self.algorithms = list(algorithms) if algorithms is _DEFAULT_ALGORITHMS else algorithms
        self.cost_kind = cost_kind
        self.mode = mode
        self.threshold_scope = threshold_scope
        self.weight_max = weight_max
        self.sample_rows = sample_rows
        self.p_up = p_up
        self.jobs = jobs
        self.include_times = include_times
        _check_list("sizes", self.sizes, lambda size: _check_int("each of sizes", size, 1, MAX_DEGREE))
        _check_list("algorithms", self.algorithms, _check_algorithm)
        if "exhaustive" in self.algorithms and max(self.sizes) > EXHAUSTIVE_MAX_DEGREE:
            raise ValueError(f"sizes must stay within {EXHAUSTIVE_MAX_DEGREE} for exhaustive")
        _check_int("instances_per_size", self.instances_per_size, 1)
        _check_int("seed", self.seed)
        _check_int("weight_max", self.weight_max, 1)
        if not costmod.is_finite_number(max(self.sizes) * self.weight_max):
            raise ValueError("weight_max times the largest size must be a finite float")
        _check_int("sample_rows", self.sample_rows, 1)
        _check_int("jobs", self.jobs, 1)
        if self.mode not in (OPTIMAL, SUBOPTIMAL, DYNAMICS):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.threshold_scope not in ("mean", "per-instance"):
            raise ValueError("threshold_scope must be 'mean' or 'per-instance'")
        if self.cost_kind not in (costmod.SUBSET_SUM, costmod.MCE):
            raise ValueError(f"unsupported cost kind {self.cost_kind!r}")
        check_p_up(self.p_up)
        if type(self.include_times) is not bool:
            raise ValueError(f"include_times must be true or false, got {self.include_times!r}")
        if self.jobs > 1 and self.include_times:
            raise ValueError("time columns are only valid at jobs=1; set include_times=False")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        """The config in a JSON file; errors name path."""
        with costmod.errors_name(path):
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("config must be a JSON object")
            unknown = set(payload) - set(cls.__slots__)
            if unknown:
                raise ValueError(f"unknown config keys {sorted(unknown)}")
            if "sizes" not in payload:
                raise ValueError("config lacks the required key 'sizes'")
            return cls(**payload)


def _check_int(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Reject a value that is not an int (a bool included) or lies outside low..high."""
    if type(value) is int and (low is None or value >= low) and (high is None or value <= high):
        return
    if high is not None:
        raise ValueError(f"{name} must be an int in {low}..{high}, got {value!r}")
    if low is not None:
        raise ValueError(f"{name} must be an int of at least {low}, got {value!r}")
    raise ValueError(f"{name} must be an int, got {value!r}")


def _check_list(name: str, values, check: Callable) -> None:
    """Reject anything but a non-empty list of distinct items that each pass check."""
    if not isinstance(values, list) or not values:
        raise ValueError(f"{name} must be a non-empty list, got {values!r}")
    for value in values:
        check(value)
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must not repeat, got {values!r}")


def _check_algorithm(name) -> None:
    if not isinstance(name, str) or name not in SOLVERS:
        raise ValueError(f"unknown algorithm {name!r} in algorithms")


# ---------------------------------------------------------------------------
# instance materialization


def seeded_instances(
    cost_kind: str,
    size: int,
    count: int,
    seed: int,
    weight_max: int,
    sample_rows: int,
    noise: float = costmod.DEFAULT_SAMPLE_NOISE,
) -> list[tuple[str, Instance]]:
    """Build count seeded instances of one size, each as (file name, instance).

    A subset_sum instance is drawn from weight_max, an mce instance's sample
    table from sample_rows and noise. save_instance writes each to its name
    and load_instance_checked reads it back: the name's suffix is the
    kind's, from cost.instance_suffix. Instance idx is seeded by
    derive_seed(seed, "instance", size, idx), so the protocols and
    `ucurve generate` write the same files. Nothing is written here, so a
    bad input raises before a caller creates any file.
    """
    built = []
    for idx in range(count):
        instance_seed = derive_seed(seed, "instance", size, idx)
        if cost_kind == costmod.SUBSET_SUM:
            instance = costmod.generate_subset_sum_instance(size, instance_seed, weight_max)
        else:
            table = costmod.generate_sample_table(size, sample_rows, instance_seed, noise=noise)
            instance = mce_instance(table)
        built.append((_instance_name(cost_kind, size, idx), instance))
    return built


def prepare_instances(config: ExperimentConfig, workdir: str | Path) -> dict[str, str]:
    """Write one file per (size, index) instance plus a sha256 manifest.

    Returns the manifest mapping relative file name to hash. Regenerating
    with the same config yields byte-identical files.
    """
    root = Path(workdir)
    instance_dir = root / "instances"
    instance_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, str] = {}
    for size in config.sizes:
        for name, instance in seeded_instances(
            config.cost_kind,
            size,
            config.instances_per_size,
            config.seed,
            config.weight_max,
            config.sample_rows,
        ):
            path = instance_dir / name
            save_instance(instance, path)
            manifest[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path = root / "instances_manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return manifest


def _instance_name(cost_kind: str, size: int, idx: int) -> str:
    return f"n{size:02d}_i{idx:03d}{costmod.instance_suffix(cost_kind)}"


def load_instance_checked(path: Path, expected_hash: str) -> Instance:
    """The instance in path, parsed from the one read whose hash is checked.

    parse_instance gets the bytes that were hashed, and decodes them itself.
    """
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != expected_hash:
        raise ValueError(f"{path}: content hash mismatch, instance file changed between steps")
    return parse_instance(data, path)


# ---------------------------------------------------------------------------
# single runs


def run_solver(
    algorithm: str,
    instance: Instance,
    seed: int = 0,
    p_up: float = DEFAULT_P_UP,
    node_budget: int | None = None,
    cost_target: float | None = None,
    on_event: Callable[[dict], None] | None = None,
) -> SearchReport:
    """Run one registered solver; p_up is checked here for every algorithm, used or not."""
    if on_event is not None and algorithm != "ucs":
        raise ValueError("event tracing is only supported by the ucs solver")
    solver = SOLVERS.get(algorithm)
    if solver is None:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    check_p_up(p_up)
    return solver(
        instance, seed, p_up, on_event=on_event, node_budget=node_budget, cost_target=cost_target
    )


def _run_task(task: dict) -> tuple:
    instance = load_instance_checked(Path(task["path"]), task["hash"])
    report = run_solver(
        task["algorithm"],
        instance,
        seed=task["seed"],
        p_up=task["p_up"],
        node_budget=task.get("node_budget"),
        cost_target=task.get("cost_target"),
    )
    return task["key"], report


def _run_all(tasks: list[dict], jobs: int) -> dict[tuple, SearchReport]:
    if jobs <= 1:
        return dict(_run_task(t) for t in tasks)
    # imported here: the process pool pulls in multiprocessing, about 2 MB of
    # resident memory that a serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return dict(pool.map(_run_task, tasks, chunksize=4))


# ---------------------------------------------------------------------------
# protocols


def _tasks_for(
    config: ExperimentConfig,
    workdir: Path,
    manifest: dict[str, str],
    algorithms: Sequence[str],
    step: str,
    budgets: dict[tuple[int, int], dict] | None = None,
) -> list[dict]:
    """One task per (size, index, algorithm); budgets adds stop criteria per instance."""
    tasks = []
    for size in config.sizes:
        for idx in range(config.instances_per_size):
            name = _instance_name(config.cost_kind, size, idx)
            for alg in algorithms:
                task = {
                    "key": (size, idx, alg),
                    "path": str(workdir / "instances" / name),
                    "hash": manifest[name],
                    "algorithm": alg,
                    "seed": derive_seed(config.seed, "solve", step, size, idx, alg),
                    "p_up": config.p_up,
                }
                if budgets:
                    task.update(budgets[(size, idx)])
                tasks.append(task)
    return tasks


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _comparison_rows(
    config: ExperimentConfig,
    results: dict[tuple, SearchReport],
    algorithms: Sequence[str],
    extra: dict[int, dict] | None = None,
) -> list[dict]:
    """One row per (size, algorithm), its keys in the report's column order.

    best_solution_count counts the instances where the algorithm matched
    the least best cost any of the algorithms found; a run that found no
    subset (best cost None) counts as inf. extra holds a size's further
    columns (threshold or witness_rate); the time columns come last.
    """
    rows = []
    for size in config.sizes:
        runs = {
            alg: [results[(size, idx, alg)] for idx in range(config.instances_per_size)]
            for alg in algorithms
        }
        costs = {
            alg: [math.inf if r.best_cost is None else r.best_cost for r in reports]
            for alg, reports in runs.items()
        }
        best = [min(instance_costs) for instance_costs in zip(*costs.values())]
        for alg, reports in runs.items():
            row = {
                "n": size,
                "algorithm": alg,
                "instances": len(reports),
                "best_solution_count": sum(c == b for c, b in zip(costs[alg], best)),
                "mean_computed_nodes": _mean([r.computed_nodes for r in reports]),
            }
            if extra:
                row.update(extra[size])
            if config.include_times:
                mean_time = _mean([r.wall_time for r in reports])
                row["mean_time_sec"] = mean_time
                row["mean_time_in_cost_sec"] = _mean([r.time_in_cost for r in reports])
                row["log2_mean_time_sec"] = math.log2(mean_time) if mean_time > 0 else None
            rows.append(row)
    return rows


def _witness_rates(config: ExperimentConfig, workdir: Path, manifest: dict[str, str]) -> dict[int, float]:
    """Fraction of instances per size where the entropy cost breaks the chain shape.

    Estimated data gives no shape guarantee; the rate is recorded alongside
    the comparison so suboptimal entropy results can be read with care.
    """
    rates = {}
    for size in config.sizes:
        witnesses = 0
        for idx in range(config.instances_per_size):
            name = _instance_name(config.cost_kind, size, idx)
            instance = load_instance_checked(workdir / "instances" / name, manifest[name])
            seed = derive_seed(config.seed, "witness", size, idx)
            if costmod.verify_decomposable(instance, mode="sampled", chains=200, seed=seed):
                witnesses += 1
        rates[size] = witnesses / config.instances_per_size
    return rates


def run_optimal(config: ExperimentConfig, workdir: str | Path) -> list[dict]:
    """Unbudgeted comparison: mean nodes, mean time, best-solution counts."""
    workdir = Path(workdir)
    manifest = prepare_instances(config, workdir)
    tasks = _tasks_for(config, workdir, manifest, config.algorithms, "optimal")
    results = _run_all(tasks, config.jobs)
    extra = None
    if config.cost_kind == costmod.MCE:
        rates = _witness_rates(config, workdir, manifest)
        extra = {size: {"witness_rate": rate} for size, rate in rates.items()}
    return _comparison_rows(config, results, config.algorithms, extra)


def run_suboptimal(config: ExperimentConfig, workdir: str | Path) -> tuple[list[dict], list[dict]]:
    """Three-step budgeted protocol over one shared instance set.

    The thresholds are set per group of instances: each (size, index) for
    threshold_scope "per-instance", each size for "mean". Step 1 runs the
    floating heuristic unbudgeted; its best costs, averaged over a mean
    group, set the group's cost target. Step 2 runs the two optimal solvers
    with that target; the node threshold is the ceiling of the greatest
    node count across all three algorithms, each averaged over a mean
    group. Step 3 reruns all three with the node threshold as the budget
    and tabulates like the optimal protocol, with a threshold column in
    mean scope. It runs ucs, ubb and sffs, whatever config.algorithms says.
    """
    workdir = Path(workdir)
    manifest = prepare_instances(config, workdir)
    per_instance = config.threshold_scope == "per-instance"
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for size in config.sizes:
        for idx in range(config.instances_per_size):
            groups.setdefault((size, idx) if per_instance else (size,), []).append((size, idx))
    # a per-instance value stays as it is: an int node count stays an int
    collapse = (lambda values: values[0]) if per_instance else _mean

    runs = _run_all(_tasks_for(config, workdir, manifest, ["sffs"], "step1"), config.jobs)
    cost_targets = {}
    for members in groups.values():
        target = collapse([runs[(size, idx, "sffs")].best_cost for size, idx in members])
        cost_targets.update(dict.fromkeys(members, {"cost_target": target}))
    step2 = _tasks_for(config, workdir, manifest, ["ucs", "ubb"], "step2", cost_targets)
    runs.update(_run_all(step2, config.jobs))

    step3_algs = ["ucs", "ubb", "sffs"]
    threshold_rows: list[dict] = []
    node_budgets: dict[tuple[int, int], dict] = {}
    threshold_column: dict[int, dict] = {}
    for key, members in groups.items():
        # key (size,) gives the column n, key (size, idx) also gives instance
        row = dict(zip(("n", "instance"), key))
        for alg in step3_algs:
            nodes = [runs[(size, idx, alg)].computed_nodes for size, idx in members]
            row[f"{alg}_nodes"] = collapse(nodes)
        limit = math.ceil(max(row[f"{alg}_nodes"] for alg in step3_algs))
        row["threshold"] = limit
        threshold_rows.append(row)
        node_budgets.update(dict.fromkeys(members, {"node_budget": limit}))
        if not per_instance:
            threshold_column[key[0]] = {"threshold": limit}

    # thresholds land on disk before step 3 runs, so an aborted step still
    # leaves the pre-processing results behind
    _write_table(threshold_rows, workdir, "suboptimal_thresholds")

    step3 = _run_all(
        _tasks_for(config, workdir, manifest, step3_algs, "step3", node_budgets), config.jobs
    )
    for (size, idx, alg), report in step3.items():
        limit = node_budgets[(size, idx)]["node_budget"]
        if report.computed_nodes > limit:
            raise RuntimeError(
                f"budget contract violated: {alg} computed {report.computed_nodes} > {limit}"
            )
    return threshold_rows, _comparison_rows(config, step3, step3_algs, threshold_column)


def dynamics_profile(config: ExperimentConfig, workdir: str | Path) -> list[dict]:
    """Main-loop iteration accounting: how rarely an iteration yields a DFS.

    One row per size, its keys in the report's column order. It runs ucs
    alone, whatever config.algorithms says.
    """
    workdir = Path(workdir)
    manifest = prepare_instances(config, workdir)
    tasks = _tasks_for(config, workdir, manifest, ["ucs"], "dynamics")
    results = _run_all(tasks, config.jobs)
    rows = []
    for size in config.sizes:
        reports = [results[(size, idx, "ucs")] for idx in range(config.instances_per_size)]
        mean_dfs = _mean([r.dfs_calls for r in reports])
        mean_minmax = _mean([r.minmax_calls for r in reports])
        rows.append(
            {
                "n": size,
                "instances": len(reports),
                "mean_dfs_calls": mean_dfs,
                "mean_minmax_calls": mean_minmax,
                "ratio": mean_dfs / mean_minmax if mean_minmax else None,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# report emission

_COLUMN_DECIMALS = {
    "mean_computed_nodes": 2,
    "mean_time_sec": 2,
    "mean_time_in_cost_sec": 2,
    "log2_mean_time_sec": 2,
    "mean_dfs_calls": 2,
    "mean_minmax_calls": 2,
    "ratio": 4,
    "witness_rate": 4,
    "ucs_nodes": 2,
    "ubb_nodes": 2,
    "sffs_nodes": 2,
}


def _rounded(rows: list[dict], columns: Sequence[str]) -> list[dict]:
    out = []
    for row in rows:
        item = {}
        for col in columns:
            value = row.get(col)
            decimals = _COLUMN_DECIMALS.get(col)
            if decimals is not None and isinstance(value, float):
                value = round(value, decimals)
            item[col] = value
        out.append(item)
    return out


def _format_cell(column: str, value) -> str:
    if value is None:
        return ""
    decimals = _COLUMN_DECIMALS.get(column)
    if decimals is not None and isinstance(value, float):
        return f"{value:.{decimals}f}"
    return str(value)


def emit_report(rows: list[dict], columns: Sequence[str], path: str | Path, fmt: str = "csv") -> None:
    """Write rows deterministically; identical inputs give identical bytes."""
    rounded = _rounded(rows, columns)
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_format_cell(c, row[c]) for c in columns) for row in rounded)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        path.write_text(json.dumps(rounded, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _write_table(rows: list[dict], outdir: Path, stem: str) -> list[Path]:
    """Write rows as <stem>.csv and <stem>.json; the first row's keys are the columns."""
    paths = [outdir / f"{stem}.{fmt}" for fmt in _REPORT_FORMATS]
    for path, fmt in zip(paths, _REPORT_FORMATS):
        emit_report(rows, list(rows[0]), path, fmt)
    return paths


def run_benchmark(config: ExperimentConfig, outdir: str | Path) -> list[Path]:
    """Run the configured protocol end-to-end, writing CSV and JSON reports."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if config.mode == OPTIMAL:
        return _write_table(run_optimal(config, outdir), outdir, "optimal")
    if config.mode == SUBOPTIMAL:
        # run_suboptimal has written the thresholds itself, before its step 3
        _, results = run_suboptimal(config, outdir)
        thresholds = [outdir / f"suboptimal_thresholds.{fmt}" for fmt in _REPORT_FORMATS]
        return thresholds + _write_table(results, outdir, "suboptimal_results")
    return _write_table(dynamics_profile(config, outdir), outdir, "dynamics")
