"""The benchmark's trace spans still name live package boundaries.

``perfbench/tracing.py`` wraps package functions by module and attribute
name. A rename would leave a span silently at zero, and a helper called
through a local alias instead of its module global would escape its span;
these tests fail first.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_names_an_existing_attribute():
    tracing = load_tracing()
    assert tracing.FUNCTION_SPANS and tracing.METHOD_SPANS
    for _, mod, attr in tracing.FUNCTION_SPANS:
        module = importlib.import_module(f"ucurve.{mod}")
        assert callable(getattr(module, attr, None)), f"ucurve.{mod}.{attr} is gone"
    for _, mod, cls_name, meth in tracing.METHOD_SPANS:
        cls = getattr(importlib.import_module(f"ucurve.{mod}"), cls_name, None)
        assert cls is not None, f"ucurve.{mod}.{cls_name} is gone"
        assert callable(getattr(cls, meth, None)), f"ucurve.{mod}.{cls_name}.{meth} is gone"


def test_installed_spans_are_called(tmp_path):
    # install in a fresh interpreter: wrapping patches the package for good
    script = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import tracing
from ucurve import harness
from ucurve.cost import generate_subset_sum_instance

tracer = tracing.Tracer()
missing = tracing.install(tracer)
inst = generate_subset_sum_instance(8, 5)
for algorithm in ("ucs", "ubb", "sffs"):
    harness.run_solver(algorithm, inst, seed=1)
config = harness.ExperimentConfig(sizes=[5], instances_per_size=2, algorithms=["ucs", "ubb"])
harness.run_benchmark(config, {str(tmp_path)!r})
spans = tracer.snapshot()["spans"]
print(json.dumps({{"missing": missing, "calls": {{k: v["calls"] for k, v in spans.items()}}}}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["missing"] == []
    tracing = load_tracing()
    names = {name for name, *_ in tracing.FUNCTION_SPANS} | {name for name, *_ in tracing.METHOD_SPANS}
    names |= {"lattice.update", "report.conclude"}
    uncalled = sorted(name for name in names if not result["calls"].get(name))
    assert not uncalled, f"spans never entered: {uncalled}"
