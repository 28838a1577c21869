"""Command line front end.

Exit codes: 0 success, 1 negative-but-valid outcome (verify found a
witness, counter-example search exhausted its trials), 2 a node budget
ran out before the search completed, 3 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cost as costmod
from .cost import (
    EXPLICIT,
    check_instance_path,
    load_instance,
    save_instance,
    verify_decomposable,
)
from .harness import ALGORITHMS, ExperimentConfig, run_benchmark, run_solver, seeded_instances
from .lattice import render_element
from .oracle import find_counterexample
from .ucs import DEFAULT_P_UP

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_INVALID = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for budget exhaustion here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ucurve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write seeded random instances")
    gen.add_argument("--kind", choices=["subset-sum", "mce-samples"], default="subset-sum")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, required=True, help="output directory")
    gen.add_argument("--weight-max", type=int, default=costmod.DEFAULT_WEIGHT_MAX)
    gen.add_argument("--rows", type=int, default=costmod.DEFAULT_SAMPLE_ROWS, help="mce table rows")
    gen.add_argument("--noise", type=float, default=costmod.DEFAULT_SAMPLE_NOISE, help="label noise")
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="run one solver on one instance")
    solve.add_argument(
        "--algorithm",
        required=True,
        choices=ALGORITHMS,
    )
    solve.add_argument("--instance", type=Path, required=True, help="JSON, or a .txt sample table")
    stop = solve.add_mutually_exclusive_group()
    stop.add_argument("--budget", type=int, help="node budget")
    stop.add_argument("--cost-target", type=float, help="stop once a cost <= target is found")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--p-up", type=float, default=DEFAULT_P_UP)
    solve.add_argument("--trace", action="store_true", help="emit JSON event lines to stderr")
    solve.add_argument("--out", type=Path, help="write the report JSON here instead of stdout")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="run an experiment protocol")
    bench.add_argument("--config", type=Path, required=True, help="ExperimentConfig JSON")
    bench.add_argument("--mode", choices=["optimal", "suboptimal", "dynamics"])
    bench.add_argument("--out", type=Path, required=True, help="output directory")
    bench.add_argument("--jobs", type=int, help="worker processes (overrides config)")
    bench.add_argument(
        "--threshold-scope", choices=["mean", "per-instance"], dest="threshold_scope"
    )
    bench.set_defaults(func=cmd_bench)

    verify = sub.add_parser("verify", help="check a cost is U-shaped along chains")
    verify.add_argument("--instance", type=Path, required=True)
    verify.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    verify.add_argument("--chains", type=int, default=costmod.DEFAULT_CHAINS)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    finder = sub.add_parser(
        "find-counterexample", help="search for an instance defeating the legacy search"
    )
    finder.add_argument("--n", type=int, default=5)
    finder.add_argument("--trials", type=int, default=10_000)
    finder.add_argument("--seed", type=int, default=0)
    finder.add_argument("--out", type=Path, required=True, help="fixture instance JSON")
    finder.add_argument("--weight-max", type=int, default=costmod.DEFAULT_PLATEAU_WEIGHT_MAX)
    finder.add_argument("--noise", type=float, default=costmod.DEFAULT_PLATEAU_NOISE)
    finder.set_defaults(func=cmd_find_counterexample)

    return parser


def cmd_generate(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    kind = costmod.SUBSET_SUM if args.kind == "subset-sum" else costmod.MCE
    # generate everything first: a bad input raises before the directory exists
    outputs = seeded_instances(
        kind, args.n, args.count, args.seed, args.weight_max, args.rows, args.noise
    )
    args.out.mkdir(parents=True, exist_ok=True)
    for name, instance in outputs:
        save_instance(instance, args.out / name)
        print(args.out / name)
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    on_event = None
    if args.trace:

        def on_event(event: dict) -> None:
            line = dict(event)
            line["element"] = render_element(line["element"], instance.n)
            print(json.dumps(line, sort_keys=True), file=sys.stderr)

    report = run_solver(
        args.algorithm,
        instance,
        seed=args.seed,
        p_up=args.p_up,
        node_budget=args.budget,
        cost_target=args.cost_target,
        on_event=on_event,
    )
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_BUDGET if report.budget_exhausted else EXIT_OK


def cmd_bench(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
        if args.jobs > 1:
            overrides["include_times"] = False
    if args.threshold_scope:
        overrides["threshold_scope"] = args.threshold_scope
    if overrides:
        config = config.replace(**overrides)
    for path in run_benchmark(config, args.out):
        print(path)
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    witness = verify_decomposable(instance, mode=args.mode, chains=args.chains, seed=args.seed)
    if witness is None:
        print("OK: cost is U-shaped along every checked chain")
        return EXIT_OK
    n = instance.n
    fn = instance.cost_function()
    print("witness: chain triple with a hump")
    for label, mask in (("z", witness.z), ("y", witness.y), ("x", witness.x)):
        print(f"  {label}={render_element(mask, n)} cost={fn(mask)}")
    return EXIT_NEGATIVE


def cmd_find_counterexample(args) -> int:
    # the search draws explicit instances; refuse a path it could not save to first
    check_instance_path(EXPLICIT, args.out)
    instance = find_counterexample(
        args.n, args.trials, args.seed, weight_max=args.weight_max, noise=args.noise
    )
    if instance is None:
        print(f"no counter-example found in {args.trials} trials")
        return EXIT_NEGATIVE
    save_instance(instance, args.out)
    print(args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"ucurve: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
