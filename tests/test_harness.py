import hashlib
import json
from pathlib import Path

import pytest

from ucurve import harness
from ucurve.cli import main
from ucurve.cost import (
    generate_sample_table,
    generate_subset_sum_instance,
    mce_instance,
    save_instance,
)
from ucurve.harness import (
    ExperimentConfig,
    derive_seed,
    dynamics_profile,
    emit_report,
    load_instance_checked,
    prepare_instances,
    run_benchmark,
    run_optimal,
    run_solver,
    run_suboptimal,
)
from ucurve.oracle import exhaustive_solve


def small_config(**overrides):
    base = dict(
        sizes=[5, 6],
        instances_per_size=5,
        seed=11,
        algorithms=["ucs", "ubb", "sffs"],
        include_times=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sizes=[])
        with pytest.raises(ValueError):
            ExperimentConfig(sizes=[5], algorithms=["nope"])
        with pytest.raises(ValueError):
            ExperimentConfig(sizes=[5], jobs=2)  # needs include_times=False
        with pytest.raises(ValueError):
            ExperimentConfig(sizes=[5], threshold_scope="sometimes")
        with pytest.raises(ValueError, match="unsupported cost kind 'explicit'"):
            ExperimentConfig(sizes=[5], cost_kind="explicit")

    @pytest.mark.parametrize("p_up", [-0.1, 1.5, float("nan"), "0.5", True])
    def test_p_up_rejected_when_built(self, p_up):
        with pytest.raises(ValueError, match="p_up"):
            ExperimentConfig(sizes=[5], p_up=p_up)

    @pytest.mark.parametrize("p_up", [0, 0.0, 0.25, 1])
    def test_p_up_bounds_accepted(self, p_up):
        assert ExperimentConfig(sizes=[5], p_up=p_up).p_up == p_up

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sizes", [99]),
            ("sizes", [4.5]),
            ("sizes", [True]),
            ("sizes", [5, 5]),
            ("sizes", 5),
            ("sizes", [30]),  # past the exhaustive cap, with exhaustive listed
            ("instances_per_size", True),
            ("instances_per_size", 0),
            ("seed", "1"),
            ("algorithms", "ucs"),
            ("algorithms", []),
            ("algorithms", ["ucs", "ucs"]),
            ("algorithms", [["ucs"]]),
            ("weight_max", -5),
            ("weight_max", 2.0),
            ("sample_rows", 0),
            ("jobs", "2"),
            ("jobs", 1.0),
            ("include_times", 1),
            ("mode", "sometimes"),
        ],
    )
    def test_every_field_checked_when_built(self, field, value):
        base = {"sizes": [5], "algorithms": ["ucs", "exhaustive"]}
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**dict(base, **{field: value}))

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sizes": [5], "bogus": 1}))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "Expecting property name"),
            ("[5]", "config must be a JSON object"),
            ('{"sizes": [5], "bogus": 1}', "unknown config keys"),
            ('{"seed": 1}', "lacks the required key 'sizes'"),
            ('{"sizes": [0]}', "each of sizes must be an int"),
            ('{"sizes": [5], "p_up": 2}', "p_up must be a number"),
        ],
        ids=["json", "object", "unknown-key", "no-sizes", "size", "p_up"],
    )
    def test_from_json_errors_name_the_file_once(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as caught:
            ExperimentConfig.from_json(path)
        assert str(caught.value).startswith(f"{path}: ")
        assert str(caught.value).count(str(path)) == 1

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "instance", 5, 0) == derive_seed(1, "instance", 5, 0)
        assert derive_seed(1, "instance", 5, 0) != derive_seed(1, "instance", 5, 1)


class TestInstanceFiles:
    def test_manifest_regenerates_identically(self, tmp_path):
        cfg = small_config()
        first = prepare_instances(cfg, tmp_path / "a")
        second = prepare_instances(cfg, tmp_path / "b")
        assert first == second

    def test_tampering_is_detected(self, tmp_path):
        cfg = small_config()
        manifest = prepare_instances(cfg, tmp_path)
        name = next(iter(manifest))
        victim = tmp_path / "instances" / name
        payload = json.loads(victim.read_text())
        payload["target"] += 1
        victim.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="hash mismatch"):
            load_instance_checked(victim, manifest[name])

    @pytest.mark.parametrize("suffix", [".json", ".txt"])
    def test_the_bytes_hashed_are_the_bytes_parsed(self, tmp_path, monkeypatch, suffix):
        # every read of the file after the first returns another instance
        if suffix == ".json":
            first, second = (generate_subset_sum_instance(5, seed) for seed in (1, 2))
        else:
            first, second = (mce_instance(generate_sample_table(5, 30, seed)) for seed in (1, 2))
        path, other = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
        save_instance(first, path)
        save_instance(second, other)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        swapped = other.read_bytes()
        real_read_bytes = Path.read_bytes
        reads = []

        def read_bytes(self):
            if self != path:
                return real_read_bytes(self)
            reads.append(self)
            return real_read_bytes(self) if len(reads) == 1 else swapped

        def read_text(self, encoding=None, *args, **kwargs):
            return read_bytes(self).decode(encoding or "utf-8")

        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        monkeypatch.setattr(Path, "read_text", read_text)
        assert load_instance_checked(path, digest) == first
        assert len(reads) == 1

    @pytest.mark.parametrize("name", ["latin.json", "latin.txt"])
    def test_a_file_that_is_not_utf8_is_an_error_that_names_it(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe{}")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        with pytest.raises(ValueError, match="utf-8") as caught:
            load_instance_checked(path, digest)
        assert str(caught.value).startswith(f"{path}: ")
        assert str(caught.value).count(str(path)) == 1


class TestRunOptimal:
    def test_single_instance_single_algorithm(self, tmp_path):
        cfg = ExperimentConfig(
            sizes=[6], instances_per_size=1, seed=3, algorithms=["exhaustive"], include_times=False
        )
        rows = run_optimal(cfg, tmp_path)
        assert len(rows) == 1
        row = rows[0]
        assert row["mean_computed_nodes"] == 64
        assert row["best_solution_count"] == 1

    def test_optimal_solvers_always_count_as_best(self, tmp_path):
        cfg = ExperimentConfig(
            sizes=[7],
            instances_per_size=10,
            seed=9,
            algorithms=["ucs", "ubb", "exhaustive"],
            include_times=False,
        )
        rows = run_optimal(cfg, tmp_path)
        for row in rows:
            assert row["best_solution_count"] == 10


class TestRunSuboptimal:
    def test_mean_scope_end_to_end(self, tmp_path):
        cfg = small_config(mode="suboptimal")
        thresholds, results = run_suboptimal(cfg, tmp_path)
        assert [t["n"] for t in thresholds] == [5, 6]
        for t in thresholds:
            assert t["threshold"] >= max(t["ucs_nodes"], t["ubb_nodes"], t["sffs_nodes"])
            assert t["threshold"] == -(-max(t["ucs_nodes"], t["ubb_nodes"], t["sffs_nodes"]) // 1)
        for r in results:
            assert r["mean_computed_nodes"] <= r["threshold"]

    def test_a_solver_that_overruns_its_budget_is_refused(self, tmp_path, monkeypatch):
        honest = harness.SOLVERS["ubb"]

        def overrunning(inst, seed, p_up, on_event, node_budget=None, **kw):
            report = honest(inst, seed, p_up, on_event, node_budget=node_budget, **kw)
            if node_budget is None:
                return report
            return report.replace(computed_nodes=node_budget + 1)

        monkeypatch.setitem(harness.SOLVERS, "ubb", overrunning)
        cfg = small_config(mode="suboptimal", sizes=[5], instances_per_size=1)
        with pytest.raises(RuntimeError, match="budget contract violated: ubb computed"):
            run_suboptimal(cfg, tmp_path)

    def test_per_instance_scope(self, tmp_path):
        cfg = small_config(mode="suboptimal", threshold_scope="per-instance")
        thresholds, results = run_suboptimal(cfg, tmp_path)
        assert len(thresholds) == 10  # one row per (size, instance)
        assert all("instance" in t for t in thresholds)
        assert len(results) == 6

    def test_budget_slack_equals_unbudgeted(self):
        inst = generate_subset_sum_instance(6, 5)
        free = exhaustive_solve(6, inst)
        capped = run_solver("exhaustive", inst, node_budget=2**6)
        assert capped.minima == free.minima
        assert capped.computed_nodes == free.computed_nodes
        assert not capped.budget_exhausted


class TestDynamics:
    def test_ratio_bounded_and_rows_shaped(self, tmp_path):
        cfg = small_config(mode="dynamics", sizes=[4, 7], algorithms=["ucs"])
        rows = dynamics_profile(cfg, tmp_path)
        assert [r["n"] for r in rows] == [4, 7]
        for row in rows:
            assert 0 < row["ratio"] <= 1.0
            assert row["mean_dfs_calls"] <= row["mean_minmax_calls"]


class TestEmission:
    def test_empty_rows_gives_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report([], ["n", "algorithm"], path, "csv")
        assert path.read_text() == "n,algorithm\n"

    def test_none_is_an_empty_csv_cell(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report([{"n": 5, "ratio": None}], ["n", "ratio"], path, "csv")
        assert path.read_text() == "n,ratio\n5,\n"

    def test_unknown_format_refused(self, tmp_path):
        path = tmp_path / "out.xml"
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            emit_report([{"n": 5}], ["n"], path, "xml")
        assert not path.exists()

    def test_identical_inputs_identical_bytes(self, tmp_path):
        rows = [{"n": 5, "algorithm": "ucs", "mean_computed_nodes": 12.3456}]
        cols = ["n", "algorithm", "mean_computed_nodes"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(rows, cols, a, "csv")
        emit_report(rows, cols, b, "csv")
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trips_through_csv_columns(self, tmp_path):
        rows = [
            {"n": 5, "algorithm": "ucs", "mean_computed_nodes": 20.0, "best_solution_count": 5},
            {"n": 5, "algorithm": "ubb", "mean_computed_nodes": 24.755, "best_solution_count": 4},
        ]
        cols = ["n", "algorithm", "best_solution_count", "mean_computed_nodes"]
        emit_report(rows, cols, tmp_path / "r.csv", "csv")
        emit_report(rows, cols, tmp_path / "r.json", "json")
        parsed = json.loads((tmp_path / "r.json").read_text())
        lines = (tmp_path / "r.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == cols
        for row, line in zip(parsed, lines[1:]):
            cells = line.split(",")
            for col, cell in zip(header, cells):
                value = row[col]
                assert str(value) == cell or float(cell) == value

    def test_pipeline_byte_identical_across_runs(self, tmp_path):
        cfg = small_config(mode="optimal")
        out_a = run_benchmark(cfg, tmp_path / "a")
        out_b = run_benchmark(cfg, tmp_path / "b")
        for pa, pb in zip(out_a, out_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_suboptimal_pipeline_byte_identical(self, tmp_path):
        cfg = small_config(mode="suboptimal", sizes=[5], instances_per_size=4)
        out_a = run_benchmark(cfg, tmp_path / "a")
        out_b = run_benchmark(cfg, tmp_path / "b")
        assert [p.name for p in out_a] == [
            "suboptimal_thresholds.csv",
            "suboptimal_thresholds.json",
            "suboptimal_results.csv",
            "suboptimal_results.json",
        ]
        for pa, pb in zip(out_a, out_b):
            assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize(
        "scope, digests",
        [
            (
                "mean",
                {
                    "suboptimal_thresholds.csv": "90b16d290971c5ab",
                    "suboptimal_thresholds.json": "86cf40bd124b8d25",
                    "suboptimal_results.csv": "7235da927660e1f1",
                    "suboptimal_results.json": "856a1c27193b4b48",
                },
            ),
            (
                "per-instance",
                {
                    "suboptimal_thresholds.csv": "36ddb268d24ef07e",
                    "suboptimal_thresholds.json": "bcb7de2b16113b89",
                    "suboptimal_results.csv": "34f3da28036c8795",
                    "suboptimal_results.json": "e56815c5b33d64dd",
                },
            ),
        ],
    )
    def test_suboptimal_reports_written_once(self, tmp_path, monkeypatch, scope, digests):
        # the digests were taken when run_benchmark still wrote the thresholds a second time
        written = []
        emit = harness.emit_report

        def counted(rows, columns, path, fmt="csv"):
            written.append(Path(path).name)
            emit(rows, columns, path, fmt)

        monkeypatch.setattr(harness, "emit_report", counted)
        cfg = small_config(mode="suboptimal", instances_per_size=4, threshold_scope=scope)
        paths = run_benchmark(cfg, tmp_path)
        assert [p.name for p in paths] == list(digests)
        assert sorted(written) == sorted(digests)
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in paths} == digests

    @pytest.mark.parametrize(
        "case, digests",
        [
            pytest.param(
                {"mode": "optimal"},
                {
                    "instances_manifest.json": "57ab4f75e8526c6d",
                    "optimal.csv": "1c38eecd708771d0",
                    "optimal.json": "a39955b16d44d6e2",
                },
                id="optimal-subset_sum",
            ),
            pytest.param(
                {"mode": "optimal", "cost_kind": "mce", "sample_rows": 60},
                {
                    "instances_manifest.json": "1af1b91e96a3496d",
                    "optimal.csv": "1a56568bb10ec4e2",
                    "optimal.json": "77995d329fc2819f",
                },
                id="optimal-mce",
            ),
            pytest.param(
                {"mode": "dynamics", "algorithms": ["ucs"]},
                {
                    "dynamics.csv": "1cf0d52618585065",
                    "dynamics.json": "d363effa05c2742a",
                    "instances_manifest.json": "57ab4f75e8526c6d",
                },
                id="dynamics",
            ),
            pytest.param(
                {"mode": "suboptimal", "instances_per_size": 1},
                {
                    "instances_manifest.json": "a98868900fb309b9",
                    "suboptimal_results.csv": "b89b22227def26ef",
                    "suboptimal_results.json": "2aad0c5e7c0c7791",
                    "suboptimal_thresholds.csv": "3b9b12dff854b7c1",
                    "suboptimal_thresholds.json": "5310d566ab5d66fa",
                },
                id="suboptimal-mean-1",
            ),
            pytest.param(
                {"mode": "suboptimal"},
                {
                    "instances_manifest.json": "57ab4f75e8526c6d",
                    "suboptimal_results.csv": "292096b924d480a0",
                    "suboptimal_results.json": "199b64f6888174f5",
                    "suboptimal_thresholds.csv": "8c68f0285cbcb7ae",
                    "suboptimal_thresholds.json": "aee2264707a6937f",
                },
                id="suboptimal-mean-3",
            ),
            pytest.param(
                {"mode": "suboptimal", "threshold_scope": "per-instance", "instances_per_size": 1},
                {
                    "instances_manifest.json": "a98868900fb309b9",
                    "suboptimal_results.csv": "d9a3ef67e571f5ae",
                    "suboptimal_results.json": "72ba9c8cba477b44",
                    "suboptimal_thresholds.csv": "08f056ddfe33225e",
                    "suboptimal_thresholds.json": "d7937299745984c9",
                },
                id="suboptimal-per-instance-1",
            ),
            pytest.param(
                {"mode": "suboptimal", "threshold_scope": "per-instance"},
                {
                    "instances_manifest.json": "57ab4f75e8526c6d",
                    "suboptimal_results.csv": "9f2594c99111a350",
                    "suboptimal_results.json": "87d4beee93f70d48",
                    "suboptimal_thresholds.csv": "1bc3b48919225502",
                    "suboptimal_thresholds.json": "cb08eb9244af56fd",
                },
                id="suboptimal-per-instance-3",
            ),
            pytest.param(
                ["generate", "--kind", "subset-sum", "--n", "6", "--count", "2", "--seed", "4"],
                {
                    "n06_i000.json": "3febb0be3feb7e14",
                    "n06_i001.json": "6923395d1094254b",
                },
                id="generate-subset-sum",
            ),
            pytest.param(
                ["generate", "--kind", "mce-samples", "--n", "6", "--count", "2", "--seed", "4", "--rows", "30"],
                {
                    "n06_i000.txt": "c7c3596e3bd56377",
                    "n06_i001.txt": "e126cbac031bf806",
                },
                id="generate-mce-samples",
            ),
        ],
    )
    def test_outputs_match_pinned_digests(self, tmp_path, capsys, case, digests):
        # a config is run through run_benchmark, a list through the command line;
        # the instance manifest pins every instance file's bytes
        if isinstance(case, list):
            assert main([*case, "--out", str(tmp_path)]) == 0
            capsys.readouterr()
        else:
            run_benchmark(small_config(**dict({"instances_per_size": 3}, **case)), tmp_path)
        files = sorted(p for p in tmp_path.iterdir() if p.is_file())
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in files} == digests

    def test_time_columns_present_only_when_asked(self, tmp_path):
        timed = ExperimentConfig(sizes=[4], instances_per_size=2, seed=1, include_times=True)
        plain = small_config()

        def header(config, outdir):
            csv = next(p for p in run_benchmark(config, outdir) if p.suffix == ".csv")
            return csv.read_text().splitlines()[0].split(",")

        assert "mean_time_sec" in header(timed, tmp_path / "timed")
        assert "mean_time_sec" not in header(plain, tmp_path / "plain")


class TestWorkers:
    def test_jobs_two_matches_jobs_one_on_counts(self, tmp_path):
        serial = run_optimal(small_config(), tmp_path / "s")
        parallel = run_optimal(small_config(jobs=2), tmp_path / "p")
        assert serial == parallel


class TestEntropyCostRuns:
    def test_witness_rate_recorded_for_entropy_costs(self, tmp_path):
        cfg = ExperimentConfig(
            sizes=[5],
            instances_per_size=6,
            seed=2,
            algorithms=["ucs", "sffs"],
            cost_kind="mce",
            include_times=False,
        )
        rows = run_optimal(cfg, tmp_path)
        for row in rows:
            assert 0.0 <= row["witness_rate"] <= 1.0
        # the emitted columns are the first row's keys
        assert list(rows[0]) == [
            "n",
            "algorithm",
            "instances",
            "best_solution_count",
            "mean_computed_nodes",
            "witness_rate",
        ]

    def test_dynamics_ratio_decreases_with_size(self, tmp_path):
        cfg = ExperimentConfig(
            sizes=[5, 9],
            instances_per_size=30,
            seed=4,
            algorithms=["ucs"],
            mode="dynamics",
            include_times=False,
        )
        small, large = dynamics_profile(cfg, tmp_path)
        assert large["ratio"] < small["ratio"]


class TestCounterCrossCheck:
    def test_reported_nodes_match_raw_cost_invocations(self):
        from ucurve.oracle import exhaustive_solve, legacy_ucurve_solve
        from ucurve.sffs import sffs_solve
        from ucurve.ubb import ubb_solve
        from ucurve.ucs import ucs_solve

        inst = generate_subset_sum_instance(7, 12)
        base = inst.cost_function()
        runners = [
            lambda cost: ucs_solve(7, cost, seed=1),
            lambda cost: ubb_solve(7, cost),
            lambda cost: sffs_solve(7, cost),
            lambda cost: exhaustive_solve(7, cost),
            lambda cost: legacy_ucurve_solve(7, cost, seed=1),
        ]
        for runner in runners:
            calls = []

            def counted(x, _base=base, _calls=calls):
                _calls.append(x)
                return _base(x)

            report = runner(counted)
            assert report.computed_nodes == len(calls) == len(set(calls))


@pytest.mark.parametrize("algorithm", ["ubb", "sffs", "exhaustive"])
@pytest.mark.parametrize("p_up", [7.0, -0.5, float("nan"), True, "0.5", None, [1]])
def test_run_solver_checks_p_up_for_every_algorithm(algorithm, p_up):
    with pytest.raises(ValueError, match="p_up"):
        run_solver(algorithm, generate_subset_sum_instance(5, 3), p_up=p_up)


@pytest.mark.parametrize(
    "algorithm, on_event, message",
    [
        ("nope", None, "unknown algorithm 'nope'"),
        ("ubb", print, "event tracing is only supported by the ucs solver"),
    ],
    ids=["unknown", "trace"],
)
def test_run_solver_refusals(algorithm, on_event, message):
    with pytest.raises(ValueError, match=message):
        run_solver(algorithm, generate_subset_sum_instance(5, 3), on_event=on_event)
