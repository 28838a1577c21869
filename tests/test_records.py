"""The package's value classes and what importing the package loads."""

import os
import pickle
import subprocess
import sys

import pytest

from conftest import package_path
from ucurve.cost import Instance, SampleTable
from ucurve.harness import ExperimentConfig
from ucurve.report import SearchReport
from ucurve.ubb import ubb_solve


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # -S keeps site-packages (and whatever they import at start-up) out of the check
    script = (
        f"import sys; sys.path.insert(0, {package_path()!r})\n"
        "import ucurve, ucurve.harness, ucurve.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def subset_sum(n=3, target=2):
    return Instance(n=n, kind="subset_sum", weights=tuple(range(1, n + 1)), target=target)


def table():
    return SampleTable(n=2, rows=((1, 0), (2, 1)))


def report():
    return ubb_solve(3, subset_sum())


class TestFrozenValues:
    def test_repr_lists_every_field_as_a_dataclass_did(self):
        assert repr(subset_sum()) == (
            "Instance(n=3, kind='subset_sum', weights=(1, 2, 3), target=2, costs=None, samples=None)"
        )
        assert repr(table()) == "SampleTable(n=2, rows=((1, 0), (2, 1)))"

    @pytest.mark.parametrize("make", [subset_sum, table])
    def test_equal_values_are_equal_and_hash_alike(self, make):
        assert make() == make()
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1
        assert make() != subset_sum(target=1)
        assert make() != "not a value"

    def test_positional_and_keyword_construction_agree(self):
        assert Instance(3, "subset_sum", (1, 2, 3), 2) == subset_sum()
        assert SampleTable(2, ((1, 0), (2, 1))) == table()

    @pytest.mark.parametrize("make", [subset_sum, table])
    def test_fields_cannot_be_set_or_deleted(self, make):
        value = make()
        with pytest.raises(AttributeError):
            value.n = 4
        with pytest.raises(AttributeError):
            del value.n
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value.n == make().n

    @pytest.mark.parametrize("make", [subset_sum, table, report])
    def test_pickle_round_trip(self, make):
        value = make()
        assert pickle.loads(pickle.dumps(value)) == value

    def test_lists_given_to_the_constructor_are_copied(self):
        rows, weights, costs = [[1, 0], [2, 1]], [1, 2, 3], [0.5, 1.0, 2.0, 3.0]
        built = (
            SampleTable(n=2, rows=rows),
            Instance(n=3, kind="subset_sum", weights=weights, target=2),
            Instance(n=2, kind="explicit", costs=costs),
        )
        rows[0][0] = 3
        rows.append([0, 0])
        weights[0] = -1
        costs[0] = float("nan")
        expected = (table(), subset_sum(), Instance(n=2, kind="explicit", costs=(0.5, 1.0, 2.0, 3.0)))
        for value, same in zip(built, expected):
            assert value == same
            assert hash(value) == hash(same)

    def test_replace_checks_the_copy(self):
        instance = subset_sum()
        assert instance.replace(target=5) == subset_sum(target=5)
        with pytest.raises(ValueError, match="ints"):
            instance.replace(target=5.0)


class TestPlainValues:
    def test_search_report_compares_every_field(self):
        first = report()
        second = SearchReport(**{name: getattr(first, name) for name in SearchReport.__slots__})
        assert first == second
        second.wall_time += 1.0
        assert first != second
        with pytest.raises(TypeError):
            hash(first)

    def test_config_default_algorithms_are_a_fresh_list(self):
        first, second = ExperimentConfig(sizes=[4]), ExperimentConfig(sizes=[4])
        assert first.algorithms == ["ucs", "ubb", "sffs"]
        first.algorithms.append("exhaustive")
        assert second.algorithms == ["ucs", "ubb", "sffs"]

    def test_config_rejects_null_algorithms(self):
        with pytest.raises(ValueError, match="algorithms"):
            ExperimentConfig(sizes=[4], algorithms=None)

    def test_config_replace_checks_the_copy(self):
        config = ExperimentConfig(sizes=[4], include_times=False)
        assert config.replace(jobs=2) == ExperimentConfig(sizes=[4], include_times=False, jobs=2)
        with pytest.raises(ValueError, match="include_times"):
            ExperimentConfig(sizes=[4]).replace(jobs=2)
        with pytest.raises(TypeError):
            config.replace(colour="blue")

    def test_config_repr_lists_every_field(self):
        assert repr(ExperimentConfig(sizes=[4])) == (
            "ExperimentConfig(sizes=[4], instances_per_size=100, seed=0, "
            "algorithms=['ucs', 'ubb', 'sffs'], cost_kind='subset_sum', mode='optimal', "
            "threshold_scope='mean', weight_max=10000, sample_rows=200, p_up=0.5, jobs=1, "
            "include_times=True)"
        )

