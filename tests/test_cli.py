import json

import pytest

from ucurve.cli import main
from ucurve.cost import generate_sample_table, mce_instance, save_instance
from ucurve.ucs import ucs_solve


def run(argv):
    return main([str(a) for a in argv])


def test_generate_then_solve_round_trip(tmp_path, capsys):
    assert run(["generate", "--kind", "subset-sum", "--n", "6", "--count", "2", "--seed", "4", "--out", tmp_path]) == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert len(listed) == 2
    instance = listed[0]
    assert run(["solve", "--algorithm", "ucs", "--instance", instance, "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["algorithm"] == "ucs"
    assert report["minima"]
    assert report["budget_exhausted"] is False


def test_generate_is_deterministic(tmp_path):
    run(["generate", "--n", "5", "--count", "3", "--seed", "9", "--out", tmp_path / "a"])
    run(["generate", "--n", "5", "--count", "3", "--seed", "9", "--out", tmp_path / "b"])
    for name in ("n05_i000.json", "n05_i001.json", "n05_i002.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solve_budget_exhaustion_exit_code(tmp_path, capsys):
    run(["generate", "--n", "6", "--count", "1", "--seed", "2", "--out", tmp_path])
    instance = capsys.readouterr().out.strip()
    assert run(["solve", "--algorithm", "ubb", "--instance", instance, "--budget", "3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["budget_exhausted"] is True
    assert report["computed_nodes"] <= 3


def test_solve_rejects_bad_input(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["solve", "--algorithm", "ucs", "--instance", missing]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "--algorithm", "ucs", "--instance", bad]) == 3
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--algorithm", "ucs"])  # no --instance
    assert exc.value.code == 3
    capsys.readouterr()


def test_solve_names_the_instance_file_it_rejects(tmp_path, capsys):
    bad = tmp_path / "negative.json"
    bad.write_text(json.dumps({"n": 2, "kind": "subset_sum", "weights": [1, -1], "target": 0}))
    assert run(["solve", "--algorithm", "ucs", "--instance", bad]) == 3
    assert f"ucurve: error: {bad}: weights and target must be non-negative" in capsys.readouterr().err


def test_solve_reads_a_sample_file_as_its_mce_instance(tmp_path, capsys):
    instance = mce_instance(generate_sample_table(5, 40, seed=3))
    samples = tmp_path / "samples.txt"
    save_instance(instance, samples)
    assert run(["solve", "--algorithm", "ucs", "--instance", samples]) == 0
    reports = [json.loads(capsys.readouterr().out), ucs_solve(None, instance).to_dict()]
    got, want = ({k: v for k, v in r.items() if not k.endswith("_sec")} for r in reports)
    assert got == want


@pytest.mark.parametrize("name", ["latin.json", "latin.txt"])
def test_a_file_that_is_not_utf8_exits_three_naming_it(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{}")
    for argv in (["solve", "--algorithm", "ucs"], ["verify"]):
        assert run([*argv, "--instance", path]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ucurve: error: {path}: ")
        assert captured.err.count(str(path)) == 1


def test_usage_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--algorithm", "made-up"])
    assert exc.value.code == 3
    capsys.readouterr()


def test_solve_with_samples_and_trace(tmp_path, capsys):
    table = generate_sample_table(4, 30, seed=8)
    samples = tmp_path / "samples.txt"
    save_instance(mce_instance(table), samples)
    assert run(["solve", "--algorithm", "ucs", "--instance", samples, "--trace"]) == 0
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["n"] == 4
    events = [json.loads(line) for line in out.err.strip().splitlines()]
    kinds = {e["event"] for e in events}
    assert "push" in kinds and "restrict" in kinds
    assert all(isinstance(e["element"], str) and len(e["element"]) == 4 for e in events)


def test_verify_ok_and_witness(tmp_path, capsys):
    run(["generate", "--n", "5", "--count", "1", "--seed", "3", "--out", tmp_path])
    instance = capsys.readouterr().out.strip()
    assert run(["verify", "--instance", instance, "--mode", "exhaustive"]) == 0
    assert "OK" in capsys.readouterr().out
    hump = tmp_path / "hump.json"
    hump.write_text(json.dumps({"n": 2, "kind": "explicit", "costs": {"00": 0, "10": 5, "01": 0, "11": 0}}))
    assert run(["verify", "--instance", hump, "--mode", "exhaustive"]) == 1
    assert "witness" in capsys.readouterr().out


def test_find_counterexample_writes_fixture(tmp_path, capsys):
    out = tmp_path / "fixture.json"
    assert run(["find-counterexample", "--n", "5", "--trials", "500", "--seed", "7", "--out", out]) == 0
    capsys.readouterr()
    assert out.exists()
    assert run(["verify", "--instance", out]) == 0  # decomposable
    capsys.readouterr()


def test_find_counterexample_refuses_a_txt_out(tmp_path, capsys):
    # a .txt file is read back as a sample table, so the fixture would not
    # load; it is refused before the search, which with no trials once
    # found nothing and exited 1
    out = tmp_path / "fixture.txt"
    for trials in ([], ["--trials", "0"]):
        assert run(["find-counterexample", "--n", "5", "--seed", "7", *trials, "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ucurve: error: {out}: ")
        assert not out.exists()


def test_find_counterexample_trials_exhausted(tmp_path, capsys):
    out = tmp_path / "fixture.json"
    assert run(["find-counterexample", "--n", "5", "--trials", "0", "--seed", "7", "--out", out]) == 1
    assert not out.exists()
    capsys.readouterr()


def test_bench_from_config(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(
        json.dumps(
            {
                "sizes": [5],
                "instances_per_size": 3,
                "seed": 6,
                "algorithms": ["ucs", "sffs"],
                "include_times": False,
            }
        )
    )
    outdir = tmp_path / "results"
    assert run(["bench", "--config", cfg, "--mode", "optimal", "--out", outdir]) == 0
    capsys.readouterr()
    table = (outdir / "optimal.csv").read_text().splitlines()
    assert table[0].startswith("n,algorithm")
    assert len(table) == 3


def test_solve_writes_report_to_file(tmp_path, capsys):
    run(["generate", "--n", "5", "--count", "1", "--seed", "6", "--out", tmp_path])
    instance = capsys.readouterr().out.strip()
    out = tmp_path / "report.json"
    assert run(["solve", "--algorithm", "exhaustive", "--instance", instance, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["computed_nodes"] == 32
    assert capsys.readouterr().out == ""


def test_solve_rejects_non_finite_costs(tmp_path, capsys):
    path = tmp_path / "nan.json"
    costs = {"00": float("nan"), "10": 1.0, "01": 0.5, "11": 2.0}
    # a cost past float range once exited 1 with an OverflowError traceback
    for payload in (
        {"n": 2, "kind": "explicit", "costs": costs},
        {"n": 1, "kind": "explicit", "costs": {"0": 1.0, "1": 10**400}},
        {"n": 2, "kind": "subset_sum", "weights": [1, 10**400], "target": 0},
    ):
        path.write_text(json.dumps(payload))
        for algorithm in ("ucs", "ubb", "exhaustive", None):
            argv = ["verify"] if algorithm is None else ["solve", "--algorithm", algorithm]
            assert run([*argv, "--instance", path]) == 3, (payload["kind"], argv)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "finite" in captured.err


def test_generate_rejects_a_count_below_one(tmp_path, capsys):
    for count in ("-3", "0"):
        assert run(["generate", "--n", "5", "--count", count, "--out", tmp_path / "out"]) == 3
    assert not (tmp_path / "out").exists()
    assert "--count" in capsys.readouterr().err


def test_bench_rejects_bad_jobs_and_p_up(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    config = {"sizes": [4], "instances_per_size": 2, "algorithms": ["ubb", "ucs"], "include_times": False}
    cfg.write_text(json.dumps(config))
    outdir = tmp_path / "results"
    for jobs in ("0", "-1"):
        assert run(["bench", "--config", cfg, "--jobs", jobs, "--out", outdir]) == 3
    cfg.write_text(json.dumps(dict(config, p_up=1.5)))
    assert run(["bench", "--config", cfg, "--out", outdir]) == 3
    assert "p_up" in capsys.readouterr().err
    # rejected before anything is written
    assert not outdir.exists()


def test_bench_rejects_each_bad_field_before_writing(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    config = {"sizes": [4], "instances_per_size": 2, "algorithms": ["ubb"], "include_times": False}
    outdir = tmp_path / "results"
    for field, value in [
        ("jobs", "2"),
        ("instances_per_size", True),
        ("sizes", [99]),
        ("sizes", [4.5]),
        ("weight_max", -5),
        ("weight_max", 10**400),
        ("sample_rows", 0),
    ]:
        cfg.write_text(json.dumps(dict(config, **{field: value})))
        assert run(["bench", "--config", cfg, "--out", outdir]) == 3, field
        assert field in capsys.readouterr().err
        assert not outdir.exists(), field


def test_solve_rejects_p_up_for_every_algorithm(tmp_path, capsys):
    run(["generate", "--n", "5", "--count", "1", "--seed", "6", "--out", tmp_path])
    instance = capsys.readouterr().out.strip()
    for algorithm in ("ubb", "sffs", "exhaustive"):
        assert run(["solve", "--algorithm", algorithm, "--instance", instance, "--p-up", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p_up" in captured.err


def test_solve_rejects_a_bool_degree(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"n": True, "kind": "subset_sum", "weights": [3], "target": 1}))
    for algorithm in ("ucs", "ubb", "sffs", "exhaustive", "ucurve-legacy"):
        assert run(["solve", "--algorithm", algorithm, "--instance", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'n'" in captured.err


def test_solve_rejects_a_nan_cost_target(tmp_path, capsys):
    run(["generate", "--n", "5", "--count", "1", "--seed", "6", "--out", tmp_path])
    instance = capsys.readouterr().out.strip()
    assert run(["solve", "--algorithm", "ubb", "--instance", instance, "--cost-target", "nan"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cost target" in captured.err


def test_generate_rejects_bad_input_before_making_the_directory(tmp_path, capsys):
    out = tmp_path / "out"
    for argv in (
        ["--n", "0"],
        ["--n", "0", "--kind", "mce-samples"],
        ["--n", "5", "--kind", "mce-samples", "--rows", "0"],
        ["--n", "5", "--weight-max", "0"],
        ["--n", "5", "--weight-max", str(10**400)],
        ["--n", "5", "--kind", "mce-samples", "--noise", "7"],
        ["--n", "5", "--kind", "mce-samples", "--noise", "-0.1"],
        ["--n", "5", "--kind", "mce-samples", "--noise", "nan"],
    ):
        assert run(["generate", *argv, "--out", out]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err
        assert not out.exists(), argv


def test_verify_rejects_fewer_than_one_chain(tmp_path, capsys):
    # a noisy table that sampled verification does catch with enough chains
    samples = tmp_path / "samples.txt"
    save_instance(mce_instance(generate_sample_table(8, 40, 0, noise=0.4)), samples)
    assert run(["verify", "--instance", samples, "--mode", "sampled", "--chains", "300"]) == 1
    assert "witness" in capsys.readouterr().out
    for chains in ("-5", "0"):
        assert run(["verify", "--instance", samples, "--mode", "sampled", "--chains", chains]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chain" in captured.err


def test_solve_rejects_a_negative_budget(tmp_path, capsys):
    run(["generate", "--n", "5", "--count", "1", "--seed", "6", "--out", tmp_path])
    instance = capsys.readouterr().out.strip()
    for algorithm in ("ucs", "ubb", "sffs", "exhaustive", "ucurve-legacy"):
        assert run(["solve", "--algorithm", algorithm, "--instance", instance, "--budget", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget" in captured.err


def test_bench_rejects_a_config_without_sizes(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"instances_per_size": 2}))
    outdir = tmp_path / "results"
    assert run(["bench", "--config", cfg, "--out", outdir]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'sizes'" in captured.err
    assert not outdir.exists()


def test_find_counterexample_rejects_a_bad_noise(tmp_path, capsys):
    out = tmp_path / "fixture.json"
    for noise in ("7", "-1", "nan"):
        argv = ["find-counterexample", "--n", "5", "--trials", "50", "--seed", "1", "--noise", noise]
        assert run([*argv, "--out", out]) == 3, noise
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "noise" in captured.err, noise
        assert not out.exists(), noise
