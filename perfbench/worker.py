"""One workload process: set up, run the closed loop, check, report as JSON.

Started by run.py, never by hand:

    python3 perfbench/worker.py WORKLOAD SEED MODE SECONDS [ROUNDS]

MODE is ``setup`` (stop before the first timed solve), ``timed`` (one full
pass over the workload's inputs, then more rounds until SECONDS are up),
``traced`` (spans installed; rounds until SECONDS are up) or ``replay``
(exactly ROUNDS rounds, untraced, to compare with a traced run). Prints
one JSON object: set-up time, reference samples, per-solve records and,
when traced, the span totals.
"""

import time

STARTED = time.perf_counter()  # set-up is measured from here, before the package import

import json
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

REFERENCE_EVERY_S = 0.25  # how often the timed loop samples the reference
SETUP_REFERENCES = 15  # reference samples a set-up-only process takes after set-up
EDGE_REFERENCES = 5  # reference samples just before and just after the timed loop


def reference() -> float:
    """Seconds for a fixed pure-Python mix of dict, list, bit and call work.

    It runs between solves and never touches the package, so its time
    tracks how fast this machine runs Python at that moment. It allocates
    as the solvers do, garbage collections included: a loop that touches
    little memory tracked the solvers' slowdowns less well.
    """
    start = time.perf_counter()
    table = {}
    stack = []
    acc = 0
    for i in range(600):
        x = (i * 2654435761) & 0xFFFF
        bits = x
        while bits:
            b = bits & -bits
            bits ^= b
            acc += b.bit_length()
        table[x] = table.get(x & 0xFFF, 0) + acc
        stack.append(x)
        if len(stack) > 16:
            stack = [y for y in stack if y & 1]
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    name, seed, mode, seconds = argv[0], int(argv[1]), argv[2], float(argv[3])
    rounds_wanted = int(argv[4]) if len(argv) > 4 else None
    workload = workloads.WORKLOADS[name]
    workdir = ROOT / ".perfbench_out" / "work" / f"{name}-{seed}-{mode}-{time.time_ns()}"
    try:
        return run(workload, seed, mode, seconds, rounds_wanted, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload, seed, mode, seconds, rounds_wanted, workdir) -> int:
    state = workload.setup(seed, workdir)
    import ucurve

    source = Path(ucurve.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"imported ucurve from {source}, not from this checkout", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - STARTED
    out = {"setup_s": setup_s}
    if mode == "setup":
        out["references"] = [reference() for _ in range(SETUP_REFERENCES)]
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
        if missing:
            print(f"trace: no such boundary: {', '.join(missing)}", file=sys.stderr)

    per_pass = workload.rounds(state)
    if mode == "timed":
        least, most = per_pass, None
    elif mode == "traced":
        least, most = 1, None
    else:
        least = most = rounds_wanted
    records = []
    # a few samples on each side of the loop keep a short run's median steady
    references = [reference() for _ in range(EDGE_REFERENCES)]
    next_reference = 0.0

    def tick() -> None:
        """Sample the reference if REFERENCE_EVERY_S passed; called between solves."""
        nonlocal next_reference
        now = time.perf_counter()
        if now >= next_reference:
            references.append(reference())
            next_reference = now + REFERENCE_EVERY_S

    state["tick"] = tick
    done = 0
    deadline = time.perf_counter() + seconds
    while most is None or done < most:
        if done >= least and time.perf_counter() >= deadline:
            break
        for record in workload.run_round(state, done % per_pass):
            record["pass"] = done // per_pass
            records.append(record)
        done += 1

    references += [reference() for _ in range(EDGE_REFERENCES)]
    workload.check(state, records)
    first = {}
    for record in records:
        if record["kind"] != "solve" or record.get("why") or "nodes" not in record:
            continue
        key = (record["instance"], record["solver"])
        seen = first.setdefault(key, record)
        if (seen["nodes"], seen["best_cost"]) != (record["nodes"], record["best_cost"]):
            record["why"] = "nodes or best cost differ from the first solve"
    for record in records:
        record.pop("minima", None)
        record.pop("counted", None)

    out.update(
        rounds=done,
        per_pass=per_pass,
        records=records,
        references=references,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
