"""Order statistics, ratios with their bases, and run-to-run verdicts."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # a tail percentile keeps at least this many samples above it


def percentile(values, q: float) -> float:
    """The q-th percentile, interpolated linearly between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(count: int, q: float) -> int:
    """How many of count samples lie strictly above the q-th percentile's rank."""
    return count - 1 - math.floor((count - 1) * q / 100)


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    if count <= TAIL_BEYOND:
        raise ValueError(f"{count} samples leave no percentile with {TAIL_BEYOND} beyond it")
    q = 99
    while samples_beyond(count, q) < TAIL_BEYOND:
        q -= 1
    return q


def ratio(num: float, den: float) -> dict:
    """A ratio together with the base it was computed from."""
    return {"value": num / den if den else 0.0, "num": num, "den": den}


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median, third quartile (statistics.quantiles, n=4)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def worsening(old: float, new: float, better: str) -> float:
    """How much worse new is than old, as a share of old (negative: better)."""
    change = (new - old) / abs(old) if old else 0.0
    return change if better == "lower" else -change


def verdict(old: list[float], new: list[float], better: str, bound: float | None) -> str:
    """better / worse / within bound / unresolved for two sets of runs.

    A metric whose run-to-run spread exceeds its bound (or that has none)
    is unresolved unless every run of one side beats every run of the
    other. Otherwise it is worse when the median moved the wrong way by
    more than the bound, and better when it moved the right way by more
    than the old side's own spread.
    """
    noise = max(spread(old), spread(new))
    if bound is None or noise > bound:
        sign = 1 if better == "lower" else -1
        if max(sign * v for v in new) < min(sign * v for v in old):
            return "better"
        if min(sign * v for v in new) > max(sign * v for v in old):
            return "worse"
        return "unresolved"
    shift = worsening(statistics.median(old), statistics.median(new), better)
    if shift > bound:
        return "worse"
    if -shift > spread(old):
        return "better"
    return "within bound"


def paired_claim(pairs: list[tuple[float, float]], better: str) -> dict:
    """The nine-in-ten rule for a claimed gain over (old, new) run pairs.

    The change must win at least nine tenths of all pairs, ties counting
    for neither side, and the medians must differ by more than the old
    side's inter-quartile distance.
    """
    sign = 1 if better == "lower" else -1
    wins = sum(1 for old, new in pairs if sign * new < sign * old)
    old = [o for o, _ in pairs]
    new = [n for _, n in pairs]
    q1, med_old, q3 = quartiles(old)
    gap = sign * (med_old - statistics.median(new))
    met = bool(pairs) and wins >= 0.9 * len(pairs) and gap > q3 - q1
    return {"pairs": len(pairs), "wins": wins, "median_gap": gap, "old_iqr": q3 - q1, "met": met}
