from pathlib import Path

import pytest

import ucurve
from ucurve.cost import Instance
from ucurve.lattice import LOWER, UPPER, RestrictionSet, check_element


def package_path() -> str:
    """The directory this suite imported ucurve from, for a child interpreter's path.

    A subprocess test puts it first, so that the child runs the same code
    as the tests in this process, a mutated copy included.
    """
    return str(Path(ucurve.__file__).resolve().parents[1])


def adjacent_elements(x: int, n: int) -> list[int]:
    """All elements at Hamming distance one from x, ascending bit index."""
    check_element(x, n)
    return [x ^ (1 << b) for b in range(n)]


def in_current_space(r_lower: RestrictionSet, r_upper: RestrictionSet, x: int) -> bool:
    """True iff x survives both restriction collections."""
    if r_lower.orientation != LOWER or r_upper.orientation != UPPER:
        raise ValueError("in_current_space needs a LOWER and an UPPER collection")
    return not r_lower.covers(x) and not r_upper.covers(x)


def subset_sum_reference(weights, target, x: int) -> float:
    """|target - sum of the weights in x|, one set bit at a time: the reference for the kernel."""
    s = 0
    while x:
        b = x & -x
        s += weights[b.bit_length() - 1]
        x ^= b
    return float(abs(target - s))


def brute_minima(instance: Instance) -> tuple[set[int], float]:
    """Enumerate every subset; return (argmin set, min cost)."""
    fn = instance.cost_function()
    costs = {m: fn(m) for m in range(1 << instance.n)}
    best = min(costs.values())
    return {m for m, c in costs.items() if c == best}, best


class NoMinimumLossObserver:
    """Replays solver events against restriction replicas.

    After every restriction update, at least one global minimum must remain
    either in the surviving space or among the already-recorded elements.
    """

    def __init__(self, n: int, instance: Instance):
        self.n = n
        self.minima, _ = brute_minima(instance)
        self.r_lower = RestrictionSet(LOWER, n)
        self.r_upper = RestrictionSet(UPPER, n)
        self.recorded: set[int] = set()
        self.updates = 0
        self.violations: list[dict] = []

    def __call__(self, event: dict) -> None:
        kind = event["event"]
        if kind == "push":
            self.recorded.add(event["element"])
            return
        if kind != "restrict":
            return
        if event["side"] == "lower":
            self.r_lower.update(event["element"])
        else:
            self.r_upper.update(event["element"])
        self.updates += 1
        for g in self.minima:
            if g in self.recorded:
                break
            if not self.r_lower.covers(g) and not self.r_upper.covers(g):
                break
        else:
            self.violations.append(event)


@pytest.fixture
def explicit_n2():
    # costs indexed by mask: 00 -> 2, 10 -> 1, 01 -> 3, 11 -> 2
    return Instance(n=2, kind="explicit", costs=(2.0, 1.0, 3.0, 2.0))
