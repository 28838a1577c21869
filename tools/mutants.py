"""A mutant gate: each listed mutant of the package must fail its tests.

Usage: python3 tools/mutants.py

Each mutant names a file under src/, an exact text in it and the text
that replaces it, and the tests that must catch the change. For each
mutant the script copies src/ to a temporary directory, applies the
change there and runs those tests with PYTHONPATH on the copy; the tests
themselves are read from tests/ unchanged. The tests must import the
package in-process, so that they see the copy; one that starts a child
interpreter puts the directory the suite imported from first on the
child's path (tests/conftest.py, package_path). Before any mutant, the
union of the listed tests runs once on an unchanged copy and must pass.
Then the mutants run two at a time, each from its own directory, so that
no two runs share a Hypothesis database; results print in list order.

The gate fails if an old text does not occur exactly once (a refactor
that moves the code must update its mutant), if a test run errors out
instead of passing or failing, or if a mutant survives. It needs only
the standard library, plus pytest and hypothesis for the tests. It
prints the time of each test run and of the whole gate. Exit status 0
means every mutant was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

LATTICE = "ucurve/lattice.py"
COST = "ucurve/cost.py"
UCS = "ucurve/ucs.py"
HARNESS = "ucurve/harness.py"
CLI = "ucurve/cli.py"
TARGET = [
    "tests/test_cost.py::TestEvaluator::test_cost_target_latches",
    "tests/test_report.py::test_the_evaluation_that_meets_the_target_is_the_last",
]
BUDGET = [
    "tests/test_cost.py::TestEvaluator::test_zero_budget_stops_immediately",
    "tests/test_cost.py::TestEvaluator::test_budget_three_allows_three_distinct",
]
DEAD_NODES = ["tests/test_ucs.py::TestDfs::test_dead_nodes_are_never_expanded_or_flushed"]
MCE_WIDE = [
    "tests/test_cost.py::TestMceKernel::test_equals_reference_on_every_mask_of_a_wide_table[3]"
]
SIBLING = "tests/test_cost.py::TestMceKernel::test_a_sibling_in_the_slot_below_is_not_refined"
CURSOR = [
    "tests/test_lattice.py::TestMinMaxElements::test_cursor_steps_to_the_bit_reversed_neighbour",
    "tests/test_lattice.py::TestMinMaxElements::test_cursor_matches_greedy_and_enumeration",
]
UNTRACED = (
    "tests/test_ucs_trajectories.py::TestGoldenTrajectories::test_fixture_reproduced_untraced"
)
SEED = "tests/test_lattice.py::TestInsertSeed::test_same_state_as_update"
LONG_RUNS = "tests/test_lattice.py::TestBitmapAntichain::test_long_runs_of_bits_at_high_degrees"
MARKING = [
    "tests/test_lattice.py::TestCovers::test_matches_brute_force_with_and_without_bitmap",
    "tests/test_lattice.py::TestUpdate::test_update_preserves_coverage_semantics",
    "tests/test_lattice.py::TestBitmapAntichain::test_bitmap_tags_exactly_the_members",
]

# (name, file under src/, old text, new text, test ids that must catch it)
MUTANTS = [
    (
        "cursor on a plain increment",
        LATTICE,
        "            h = 1 << ((end ^ x).bit_length() - 1)\n"
        "            x ^= full ^ (h - 1)\n",
        "            x += 1\n",
        CURSOR,
    ),
    (
        "cursor step that skips a mask",
        LATTICE,
        "            x ^= full ^ (h - 1)\n",
        "            x ^= full ^ (h - 1)\n"
        "            if x != end:\n"
        "                h = 1 << ((end ^ x).bit_length() - 1)\n"
        "                x ^= full ^ (h - 1)\n",
        CURSOR,
    ),
    (
        "marking that skips a bit",
        LATTICE,
        "                    stack.append(bits)\n",
        "                    stack.append(bits & (bits - 1))\n",
        MARKING,
    ),
    (
        "marking that leaves leaves unmarked",
        LATTICE,
        "                cover[child & outside : (child | run) + 1 : step] = ones\n"
        "                if bits:\n"
        "                    stack.append(child)\n",
        "                if bits:\n"
        "                    cover[child & outside : (child | run) + 1 : step] = ones\n"
        "                    stack.append(child)\n",
        MARKING,
    ),
    (
        "a child's block slice with twice the run's step",
        LATTICE,
        "cover[child & outside : (child | run) + 1 : step] = ones",
        "cover[child & outside : (child | run) + 1 : 2 * step] = ones",
        MARKING + [LONG_RUNS],
    ),
    (
        "insert that keeps a tag-2 neighbour",
        LATTICE,
        "            elif tag == 2:\n",
        "            elif tag == 2 and y != x:\n",
        [
            UNTRACED,
            "tests/test_lattice.py::TestBitmapAntichain::test_bitmap_tags_exactly_the_members",
        ],
    ),
    (
        "seed insert that writes tag 1",
        LATTICE,
        "        else:\n"
        "            cover[x] = 2\n",
        "        else:\n"
        "            cover[x] = 1\n",
        [UNTRACED, SEED],
    ),
    (
        "members that keeps a seed insert's stale tags",
        LATTICE,
        "                if cover[x ^ b]:\n"
        "                    break\n",
        "                if False:\n"
        "                    break\n",
        [SEED],
    ),
    (
        "greedy walk from the full set on both sides",
        LATTICE,
        "    x = end\n",
        "    x = full\n",
        [
            "tests/test_lattice.py::TestMinMaxElements::test_minimal_is_sound_against_enumeration",
            "tests/test_lattice.py::TestMinMaxElements::test_maximal_is_sound_against_enumeration",
        ],
    ),
    (
        "subset-sum tables read 7 bits apart",
        COST,
        "            x >>= 8\n",
        "            x >>= 7\n",
        [
            "tests/test_cost.py::TestSubsetSumKernel::test_every_mask_of_small_degrees",
            "tests/test_cost.py::TestSubsetSumKernel::test_sampled_masks_across_table_boundaries",
        ],
    ),
    (
        "threshold groups of one instance in mean scope",
        HARNESS,
        "(size, idx) if per_instance else (size,)",
        "(size, idx)",
        ["tests/test_harness.py::TestRunSuboptimal::test_mean_scope_end_to_end"],
    ),
    (
        "parse_instance that reads a .txt path as JSON",
        COST,
        "        if Path(path).suffix == instance_suffix(MCE):\n",
        "        if False:\n",
        [
            "tests/test_harness.py::TestInstanceFiles::test_the_bytes_hashed_are_the_bytes_parsed"
            "[.txt]"
        ],
    ),
    (
        "a reader wrapper that re-raises without the file name",
        COST,
        "        raise ValueError(f\"{path}: {exc}\") from exc\n",
        "        raise\n",
        [
            "tests/test_cost.py::TestInstanceFiles::test_parse_instance_errors_name_the_file_once"
            "[negative-weight]",
            "tests/test_cost.py::TestInstanceFiles::test_parse_samples_errors_name_the_file_once"
            "[row-of-70]",
            "tests/test_harness.py::TestConfig::test_from_json_errors_name_the_file_once[json]",
        ],
    ),
    (
        "an instance file decoded outside the path-naming wrapper",
        COST,
        "    with errors_name(path):\n        text = data.decode(\"utf-8\")\n",
        "    text = data.decode(\"utf-8\")\n    with errors_name(path):\n",
        [
            "tests/test_cost.py::TestInstanceFiles::"
            "test_a_file_that_is_not_utf8_is_an_error_that_names_it[latin.txt]",
            "tests/test_harness.py::TestInstanceFiles::"
            "test_a_file_that_is_not_utf8_is_an_error_that_names_it[latin.json]",
        ],
    ),
    (
        "save_instance without its suffix check",
        COST,
        "    if (Path(path).suffix == instance_suffix(MCE)) != mce:\n",
        "    if False:\n",
        [
            "tests/test_cost.py::TestInstanceFiles::"
            "test_save_instance_refuses_a_suffix_its_reader_would_misread[mce-json]",
            "tests/test_cost.py::TestInstanceFiles::"
            "test_save_instance_refuses_a_suffix_its_reader_would_misread[subset_sum-txt]",
        ],
    ),
    (
        "untimed calls credited nothing",
        COST,
        "        return self.elapsed_in_cost + untimed * cheap[len(cheap) // 2]\n",
        "        return self.elapsed_in_cost\n",
        [
            "tests/test_cost.py::TestStopwatch::test_after_16_cheap_calls_one_in_16_is_timed",
            "tests/test_cost.py::TestStopwatch::test_a_slow_sample_is_counted_once",
        ],
    ),
    (
        "find-counterexample checks --out after the search",
        CLI,
        "    check_instance_path(EXPLICIT, args.out)\n",
        "",
        ["tests/test_cli.py::test_find_counterexample_refuses_a_txt_out"],
    ),
    (
        "an evaluator that meets the target without raising",
        COST,
        "            raise TargetReached\n",
        "            pass\n",
        TARGET,
    ),
    (
        "a run that lets TargetReached escape",
        COST,
        "isinstance(exc, (BudgetExhausted, TargetReached))",
        "isinstance(exc, BudgetExhausted)",
        TARGET,
    ),
    (
        "an evaluator exit that swallows every exception",
        COST,
        "        return self.stop is not None\n",
        "        return True\n",
        ["tests/test_cost.py::TestNonFiniteCosts::test_every_solver_rejects_a_nan_callable"],
    ),
    (
        "a budget check that allows one evaluation too many",
        COST,
        "len(memo) >= self.node_budget",
        "len(memo) > self.node_budget",
        BUDGET,
    ),
    (
        "an explicit kernel without its range check",
        COST,
        "                check_element(x, n)\n"
        "                return table[x]\n",
        "                return table[x]\n",
        ["tests/test_cost.py::test_every_kernel_rejects_an_out_of_range_mask"],
    ),
    (
        "a bare-callable wrapper without its element check",
        COST,
        "        check_element(x, n)\n"
        "        value = fn(x)\n",
        "        value = fn(x)\n",
        [
            "tests/test_cost.py::test_a_bare_callable_never_sees_an_out_of_range_mask[-1]",
            "tests/test_cost.py::test_a_bare_callable_never_sees_an_out_of_range_mask[1 << n]",
        ],
    ),
    (
        "dfs liveness that ignores the upper side's tag",
        UCS,
        "if lower_covered(ye) == 1 or upper_covered(ye) == 1:",
        "if lower_covered(ye) == 1:",
        DEAD_NODES,
    ),
    (
        "dfs lower-flag test that reads the whole mask",
        UCS,
        "if not y.adjacent & ye and not lower_covered(ye):",
        "if not y.adjacent and not lower_covered(ye):",
        ["tests/test_ucs.py::TestFlagSoundnessCheck::test_corrupted_seed_flag_raises[0-4-lower]"],
    ),
    (
        "node_pruning that empties the costlier node's whole mask",
        UCS,
        "    costly.adjacent &= ~(costly.element ^ r._flip)\n",
        "    costly.adjacent = 0\n",
        [UNTRACED],
    ),
    (
        "check_flag that never raises",
        UCS,
        "        if not covered(element ^ b):\n",
        "        if False:\n",
        ["tests/test_ucs.py::TestFlagSoundnessCheck::test_corrupted_seed_flag_raises"],
    ),
    (
        # the same change, caught by the test that runs it in a python -O child
        "check_flag that never raises, under python -O",
        UCS,
        "        if not covered(element ^ b):\n",
        "        if False:\n",
        ["tests/test_ucs.py::TestFlagSoundnessCheck::test_check_survives_optimized_mode"],
    ),
    (
        "antichain scan without the flip",
        LATTICE,
        "        x ^= self._flip\n"
        "        if x in members:\n",
        "        if x in members:\n",
        ["tests/test_lattice.py::TestCovers::test_matches_brute_force_with_and_without_bitmap"],
    ),
    (
        "mce mixed parts summed unsorted",
        COST,
        "        mixed.sort(key=_first_item, reverse=True)\n",
        "",
        MCE_WIDE,
    ),
    (
        "mce singletons kept as parts",
        COST,
        "            if count_in == 1:\n"
        "                singletons += 1\n"
        "            else:\n"
        "                append((inside, count_in, ones_in))\n"
        "            count_out = count - count_in\n"
        "            if count_out == 1:\n"
        "                singletons += 1\n"
        "            else:\n"
        "                append((rows_in ^ inside, count_out, ones - ones_in))\n",
        "            append((inside, count_in, ones_in))\n"
        "            append((rows_in ^ inside, count - count_in, ones - ones_in))\n",
        ["tests/test_cost.py::TestMceKernel::test_equals_reference_on_small_tables"],
    ),
    (
        "mce walk that stops at the widest filled slot without the subset check",
        COST,
        "while slots[w] is None or slots[w][0] & ~x:",
        "while slots[w] is None:",
        [SIBLING],
    ),
    (
        "mce one-row table whose width-0 slot holds its row as a part",
        COST,
        "slots[0] = (0, [all_rows], 0) if t > 1 else (0, [], 1)",
        "slots[0] = (0, [all_rows], 0)",
        ["tests/test_cost.py::TestMceKernel::test_equals_reference_on_edge_tables[rows0]"],
    ),
    (
        "mce term looked up by the row count alone",
        COST,
        "            acc += terms[count | ones << shift]\n",
        "            acc += terms[count]\n",
        MCE_WIDE,
    ),
    (
        "mce coarsening from a cached mask without the superset test",
        COST,
        "if not x & ~y and y.bit_count() < source.bit_count():",
        "if y.bit_count() < source.bit_count():",
        [SIBLING],
    ),
    (
        "mce histogram cached under its source's mask",
        COST,
        "merged = histograms[x] = _coarsen(histogram, x)",
        "merged = histograms[source] = _coarsen(histogram, x)",
        [SIBLING],
    ),
    (
        "mce coarsened singletons counted for label 0 only",
        COST,
        "singletons = values.count(1) + values.count(lone_one)",
        "singletons = values.count(1)",
        ["tests/test_cost.py::TestMceKernel::test_equals_reference_on_small_tables"],
    ),
]


def run_tests(src: Path, tests: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run pytest on tests against the package under src; exit 0 passed, 1 failed.

    Returns the finished process and its time in seconds.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    # run from the copy's own directory, so the Hypothesis example database
    # starts empty, no other run shares it, and nothing is written into the
    # repository
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["--hypothesis-seed=0", f"--rootdir={REPO}"]
    cmd += [str(REPO / t) for t in tests]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=src.parent, env=env, capture_output=True, text=True, timeout=600
    )
    return proc, time.perf_counter() - start


def fresh_copy(tmp: Path, name: str) -> Path:
    """A copy of src/ under tmp/name."""
    src = tmp / name / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def imported_from(src: Path) -> Path:
    """The file ucurve imports from with PYTHONPATH on src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    out = subprocess.run(
        [sys.executable, "-c", "import ucurve; print(ucurve.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return Path(out.stdout.strip()).resolve()


def main() -> int:
    began = time.perf_counter()
    problems = []
    for name, path, old, _new, _tests in MUTANTS:
        count = (REPO / "src" / path).read_text().count(old)
        if count != 1:
            problems.append(f"{name}: old text occurs {count} times in src/{path}, not once")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="ucurve-mutants-") as tmp_name:
        tmp = Path(tmp_name)
        clean = fresh_copy(tmp, "clean")
        if not imported_from(clean).is_relative_to(clean.resolve()):
            print(f"ucurve does not import from the copy {clean}", file=sys.stderr)
            return 1
        union = list(dict.fromkeys(t for m in MUTANTS for t in m[4]))
        proc, took = run_tests(clean, union)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print("the listed tests do not pass on the unchanged source", file=sys.stderr)
            return 1
        print(f"unchanged source: {len(union)} tests pass ({took:.1f} s)")

        def run_mutant(i: int) -> tuple[subprocess.CompletedProcess, float]:
            _name, path, old, new, tests = MUTANTS[i]
            src = fresh_copy(tmp, f"mutant{i}")
            target = src / path
            target.write_text(target.read_text().replace(old, new))
            return run_tests(src, tests)

        survivors = []
        # at most two pytest processes at once; map yields in list order
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = pool.map(run_mutant, range(len(MUTANTS)))
            for (name, *_rest), (proc, took) in zip(MUTANTS, results):
                if proc.returncode == 1:
                    print(f"killed    {name} ({took:.1f} s)", flush=True)
                elif proc.returncode == 0:
                    print(f"SURVIVED  {name} ({took:.1f} s)", flush=True)
                    survivors.append(name)
                else:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    print(f"ERROR     {name}: pytest exited {proc.returncode}", flush=True)
                    survivors.append(name)
    total = f"{time.perf_counter() - began:.1f} s in all"
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants not killed: {survivors} ({total})")
        return 1
    print(f"all {len(MUTANTS)} mutants killed ({total})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
