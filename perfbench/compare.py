"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl [--claim WORKLOAD:METRIC ...]

Each file holds run summaries, one JSON object a line, as run.py appends
them to .perfbench_out/results.jsonl. For every workload and metric the
output gives each side's median and quartiles, the metric's bound and a
verdict: better, worse, within bound, or unresolved when the run-to-run
spread is wider than the bound. A claim names one workload and metric
that a change says it improved; it is met only under the nine-in-ten
paired-win rule, pairing runs by seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import paired_claim, quartiles, verdict  # noqa: E402


def load_runs(path: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> seed -> value; a later run of a seed replaces an earlier one."""
    runs: dict[tuple[str, str], dict[int, float]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        for name, metric in run["metrics"].items():
            runs.setdefault((run["workload"], name), {})[run["seed"]] = metric["value"]
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = load_runs(args.old), load_runs(args.new)

    print(f"{'workload':<20} {'metric':<34} {'old median [q1, q3]':<44} "
          f"{'new median [q1, q3]':<44} {'bound':>6}  verdict")
    for key in sorted(old.keys() & new.keys()):
        workload, name = key
        meta = declared.get(name)
        if meta is None:
            continue
        a, b = list(old[key].values()), list(new[key].values())
        bound = meta.get("bound")
        cells = []
        for values in (a, b):
            q1, q2, q3 = quartiles(values)
            cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
        shown = f"{bound:.2f}" if bound is not None else "-"
        print(f"{workload:<20} {name:<34} {cells[0]:<44} {cells[1]:<44} {shown:>6}  "
              f"{verdict(a, b, meta['better'], bound)}")

    status = 0
    for claim in args.claim:
        workload, _, name = claim.partition(":")
        if (workload, name) not in old or (workload, name) not in new or name not in declared:
            print(f"claim {claim}: no runs of that workload and metric on both sides")
            status = 1
            continue
        seeds = sorted(old[(workload, name)].keys() & new[(workload, name)].keys())
        pairs = [(old[(workload, name)][s], new[(workload, name)][s]) for s in seeds]
        result = paired_claim(pairs, declared[name]["better"])
        print(
            f"claim {claim}: change wins {result['wins']} of {result['pairs']} seed pairs; "
            f"median gap {result['median_gap']:.6g} against an old inter-quartile distance of "
            f"{result['old_iqr']:.6g}: {'met' if result['met'] else 'not met'}"
        )
        if not result["met"]:
            status = 1
    if not args.claim:
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
