"""Cost functions, instances, and the instrumented evaluator.

Three instance kinds are supported:

* ``subset_sum``: weights w and target t, cost(X) = |t - sum of w over X|.
  Along any chain the weight sum is monotone, so the absolute gap to the
  target is U-shaped on every chain; these are the synthetic "hard"
  instances used by the benchmark protocols. The instance's cost function
  sums the weights from one table per 8 features, in exact ints.
* ``explicit``: a total cost table over all 2**n subsets, used for
  regression fixtures (searched counter-examples in particular).
* ``mce``: a penalized mean conditional entropy over a binary sample
  table, the cost used for classifier window design. Not guaranteed
  U-shaped on empirical data. ``mce_cost`` is the reference definition,
  a scan over every row. The instance's cost function is a kernel that
  never scans the rows per mask. It keeps the partition of the last mask
  of each width it partitioned, and refines each mask by the features it
  lacks from the widest of those that is its subset. A wide mask that is
  not one feature over such a subset is coarsened instead: the row-pattern
  histogram of a cached superset, the full mask's at the latest, is merged
  down to the mask's patterns. It must equal ``mce_cost`` bit for bit on
  every mask, in any order of calls.

The CostEvaluator wraps a cost function with memoization, the
computed-nodes counter shared by every solver comparison, a stopwatch on
the cost function, and the two stop criteria (node budget, cost target);
it is also the context manager that opens, times and ends each solver
run.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from functools import reduce
from operator import add, itemgetter
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

from .lattice import check_degree, check_element, parse_element, render_element
from .record import FrozenRecord

SUBSET_SUM = "subset_sum"
MCE = "mce"
EXPLICIT = "explicit"

# An explicit table needs all 2**n keys; past this degree the file format is
# not a sane way to describe an instance.
MAX_EXPLICIT_DEGREE = 24

DEFAULT_WEIGHT_MAX = 10_000

# generate_sample_table's rows and label noise, as the protocols and
# `ucurve generate` draw them
DEFAULT_SAMPLE_ROWS = 200
DEFAULT_SAMPLE_NOISE = 0.1

# generate_decomposable_explicit's weight range and noise: integer plateaus,
# the landscape behind the legacy search's counter-example
DEFAULT_PLATEAU_WEIGHT_MAX = 4
DEFAULT_PLATEAU_NOISE = 0.0

# maximal chains drawn by a sampled verify_decomposable
DEFAULT_CHAINS = 1000

# the largest degree an exhaustive verify_decomposable checks
_VERIFY_MAX_DEGREE = 10

# draws generate_decomposable_explicit makes before it gives up on a noise
_EXPLICIT_ATTEMPTS = 1000


class SampleTable(FrozenRecord):
    """Binary training rows: (observed feature mask, binary label).

    A frozen value: built by keyword or position, compared and hashed by
    its fields, and never changed after the constructor has checked it.
    The rows are stored as a tuple of pairs, so a list the caller changes
    later is not the table's.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[tuple[int, int], ...]) -> None:
        rows = tuple(map(tuple, rows))
        self._init(n=n, rows=rows)
        check_degree(n)
        if not rows:
            raise ValueError("a sample table needs at least one row")
        for x, y in rows:
            if type(x) is not int or x < 0 or x >> n:
                raise ValueError(f"row masks must be ints in range for degree {n}, got {x!r}")
            if type(y) is not int or y not in (0, 1):
                raise ValueError(f"labels must be the int 0 or 1, got {y!r}")

    @property
    def t(self) -> int:
        """Total number of samples."""
        return len(self.rows)


class Instance(FrozenRecord):
    """A cost input of one kind: subset_sum, explicit or mce.

    A frozen value like SampleTable; weights and costs are stored as
    tuples. Building one checks its fields and precomputes nothing;
    cost_function() builds whatever its kind's kernel needs each time it is
    called, so once per CostEvaluator.
    """

    __slots__ = ("n", "kind", "weights", "target", "costs", "samples")

    def __init__(
        self,
        n: int,
        kind: str,
        weights: tuple[int, ...] | None = None,
        target: int | None = None,
        costs: tuple[float, ...] | None = None,  # indexed by element mask
        samples: SampleTable | None = None,
    ) -> None:
        if weights is not None:
            weights = tuple(weights)
        if costs is not None:
            costs = tuple(costs)
        self._init(n=n, kind=kind, weights=weights, target=target, costs=costs, samples=samples)
        check_degree(n)
        if kind == SUBSET_SUM:
            if weights is None or target is None:
                raise ValueError("subset_sum instances need weights and target")
            if len(weights) != n:
                raise ValueError("weights length must equal the degree")
            if not all(type(v) is int for v in (*weights, target)):
                raise ValueError("weights and target must be ints")
            if any(w < 0 for w in weights) or target < 0:
                raise ValueError("weights and target must be non-negative")
            if not is_finite_number(max(target, sum(weights))):
                raise ValueError("weights and target must sum to a finite float")
        elif kind == EXPLICIT:
            if n > MAX_EXPLICIT_DEGREE:
                raise ValueError(f"explicit instances capped at degree {MAX_EXPLICIT_DEGREE}")
            if costs is None or len(costs) != 1 << n:
                raise ValueError("explicit instances need a cost for every subset")
            if not all(is_finite_number(c) for c in costs):
                raise ValueError("costs must be finite numbers")
            if any(c < 0 for c in costs):
                raise ValueError("costs must be non-negative")
        elif kind == MCE:
            if samples is None:
                raise ValueError("mce instances need a sample table")
            if samples.n != n:
                raise ValueError("sample width must equal the degree")
        else:
            raise ValueError(f"unknown instance kind {kind!r}")

    def cost_function(self) -> Callable[[int], float]:
        """The cost of an element mask; every kernel raises ValueError for
        an element out of range, and CostEvaluator relies on it."""
        if self.kind == SUBSET_SUM:
            return _subset_sum_kernel(self.weights, self.target)
        if self.kind == EXPLICIT:
            n, table = self.n, self.costs

            def explicit(x: int) -> float:
                check_element(x, n)
                return table[x]

            return explicit
        return _mce_kernel(self.samples)


def _subset_sum_kernel(weights: tuple[int, ...], target: int) -> Callable[[int], float]:
    """|target - sum of the weights in x|, summed from one table per 8 features.

    Entry j of table i is the sum of the weights of features 8i.. 8i+7 whose
    bits are set in j (the last table covers only the features left, so it
    may be shorter than 256). The sums are ints, exact at any size, so the
    float equals the one a bit-by-bit sum gives. The tables are built here,
    once per cost function (255 additions per full table), not when the
    instance is.
    """
    n = len(weights)
    tables = []
    for low in range(0, n, 8):
        table = [0]
        for w in weights[low : low + 8]:
            table += [s + w for s in table]
        tables.append(table)

    def subset_sum(x: int) -> float:
        if x >> n:
            raise ValueError(f"element {x} out of range for degree {n}")
        s = 0
        for table in tables:
            s += table[x & 255]
            x >>= 8
        return float(abs(target - s))

    return subset_sum


def is_finite_number(value) -> bool:
    """True for an int or float (not a bool) that is not NaN, infinite or past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def checked_cost(fn: Callable[[int], float], n: int) -> Callable[[int], float]:
    """Wrap a bare cost callable of degree n: an element out of range, or a
    non-finite or non-numeric value, raises ValueError.

    Costs are compared with < and ==, under which NaN is neither smaller nor
    equal to anything, so different solvers would read a NaN table
    differently; None would be taken for a memo miss on every lookup.
    """

    def checked(x: int) -> float:
        check_element(x, n)
        value = fn(x)
        if not is_finite_number(value):
            raise ValueError(f"cost of element {x} must be a finite number, got {value!r}")
        return value

    return checked


def mce_cost(samples: SampleTable, x: int) -> float:
    """Penalized mean conditional entropy of the label given the features in x.

    Rows are projected onto x (masking is a faithful key because x is fixed
    across rows). Values observed exactly once contribute 1/t each; values
    observed at least twice contribute their empirical weight times the
    binary entropy (bits) of the label within the group, with 0*log 0 = 0.
    The groups' terms are summed in the order of each group's first row.

    This is the reference definition. The ``mce`` instance kernel
    (``_mce_kernel``) computes every mask another way, never calling it,
    and must return the same float, bit for bit.
    """
    check_element(x, samples.n)
    counts: dict[int, list[int]] = {}
    for rx, y in samples.rows:
        key = rx & x
        c = counts.get(key)
        if c is None:
            counts[key] = c = [0, 0]
        c[y] += 1
    t = samples.t
    singletons = 0
    acc = 0.0
    for c0, c1 in counts.values():
        total = c0 + c1
        if total == 1:
            singletons += 1
            continue
        if c0 and c1:
            p0 = c0 / total
            p1 = c1 / total
            acc += -(p0 * math.log2(p0) + p1 * math.log2(p1)) * (total / t)
    return singletons / t + acc


# A mask of s features splits the rows into at most 2**s parts. Refining a
# mask by several features, up to s passes over the parts, pays only while
# that is at most 64 parts (about 8 bytes per row) and the table has at
# least 8 rows per possible part; past either bound coarsening a cached
# histogram costs less. One pass, from the slot a feature smaller, costs
# less than either at every width on 1000-row tables of 12 features.
# Without the width bound ucs and sffs ran 1.18x and 1.25x as long on
# 4096-row tables (2-vCPU machine, replayed call orders).
_KERNEL_MAX_WIDTH = 6
_KERNEL_ROWS_PER_PART = 8
# the coarsening path keeps the histograms of this many masks, besides the
# full mask's; 16-64 gained nothing over 8 on 1000-row tables of 12
# features, and 1-4 cost ucs and sffs 3-12 % more
_KERNEL_HISTOGRAMS = 8
# disjoint bitsets compare as their highest bits do, that is by first row
_first_item = itemgetter(0)


class _EntropyTerms(dict):
    """Each group's term of the mce sum, keyed by its packed value; filled on first use.

    A packed value is a group's row count plus its label-1 count shifted
    left by ``shift``. A mixed group's term is the expression mce_cost
    uses; a pure group or a singleton adds nothing to the sum, so its term
    is 0.0.
    """

    __slots__ = ("t", "shift")

    def __init__(self, t: int) -> None:
        super().__init__()
        self.t = t
        self.shift = t.bit_length()

    def __missing__(self, value: int) -> float:
        count = value & ((1 << self.shift) - 1)
        ones = value >> self.shift
        term = 0.0
        if 0 < ones < count:
            p0 = (count - ones) / count
            p1 = ones / count
            term = -(p0 * math.log2(p0) + p1 * math.log2(p1)) * (count / self.t)
        self[value] = term
        return term


def _coarsen(histogram: dict[int, int], x: int) -> dict[int, int]:
    """A histogram of a superset of x merged down to x's row patterns, in one pass.

    Keys are row patterns and values packed (row count, label-1 count)
    pairs, which add as ints. The merged groups keep the order of their
    first rows if the source's groups are in that order: a merged group is
    inserted with the first source group that falls into it, the one that
    holds its first row.
    """
    merged: dict[int, int] = {}
    get = merged.get
    for pattern, value in histogram.items():
        key = pattern & x
        merged[key] = get(key, 0) + value
    return merged


def _mce_kernel(samples: SampleTable) -> Callable[[int], float]:
    """The mce cost of a sample table, computed from row bitsets or cached histograms.

    Bit t-1-i of a feature's bitset is set when row i has the feature, and
    the same bit of the label bitset when row i has label 1, so a part's
    first row is its highest bit. A mask's row partition is kept as its
    parts of two or more rows, each with its bitset, row count and label-1
    count, plus a count of singletons; refining it by one more feature is
    one pass over the parts, and a one-row piece leaves as a singleton.

    Slot s holds the last mask of width s the kernel partitioned, with its
    partition; slot 0 holds the empty mask, all rows, from the start. A mask
    x of width s walks down from slot s-1 to the widest slot holding a
    subset of x (slot 0 at the latest), is refined from it by the features
    that subset lacks, lowest first, and fills slot s. ubb always refines
    from slot s-1: after it evaluates p it evaluates only p's descendants,
    all wider than p, before p's next child, so slot |p| still holds p then.

    Only when that slot is not s-1 and x has more than _KERNEL_MAX_WIDTH
    features, or the table fewer than _KERNEL_ROWS_PER_PART rows per
    possible part, is x coarsened instead, which writes no slot. A
    histogram maps each row pattern of a mask to its packed row and label-1
    counts, its groups in the order of their first rows. The kernel keeps
    those of the last _KERNEL_HISTOGRAMS masks it coarsened and that of the
    full mask, keyed by each row's mask and built on first use, so a run
    that never coarsens never builds it. x is coarsened from the narrowest
    of them whose mask is a superset of x (the full mask's at the latest),
    its histogram is cached, evicting the oldest past the bound, and its
    cost summed from it.

    A mask's parts, and its histogram, do not depend on how they were
    reached. The mixed groups' entropy terms come from a memo filled with
    the expression mce_cost uses, and are added one by one from 0.0 in the
    order of each group's first row, the order in which mce_cost meets its
    groups; a pure group or a singleton adds 0.0, which changes no sum, and
    the singletons' 1/t each comes last. So the float is mce_cost's, bit
    for bit. The sum is a left fold, not sum(), which compensates on
    Python 3.12. The bitsets and the slots are built here, once per cost
    function, not when the table is.
    """
    n, t = samples.n, samples.t
    width = f"0{n}b"
    rows = samples.rows
    # column j of the rendered rows holds feature n-1-j, row 0 highest
    columns = zip(*(format(x, width) for x, _ in rows))
    features = [int("".join(column), 2) for column in columns][::-1]
    labels = int("".join("01"[y] for _, y in rows), 2)
    all_rows = ((1 << t) - 1, t, labels.bit_count())
    slots: list[tuple[int, list, int] | None] = [None] * (n + 1)
    slots[0] = (0, [all_rows], 0) if t > 1 else (0, [], 1)
    terms = _EntropyTerms(t)
    shift = terms.shift
    lone_one = 1 | 1 << shift  # a singleton of label 1, packed; 1 is one of label 0
    full = (1 << n) - 1
    histograms: dict[int, dict[int, int]] = {}  # oldest first
    by_row: dict[int, int] = {}  # the full mask's histogram, once built

    def refine(parts: list, singletons: int, feature: int) -> tuple[list, int]:
        refined = []
        append = refined.append
        for part in parts:
            rows_in, count, ones = part
            inside = rows_in & feature
            count_in = inside.bit_count()
            if count_in == 0 or count_in == count:
                append(part)
                continue
            ones_in = (inside & labels).bit_count() if ones else 0
            if count_in == 1:
                singletons += 1
            else:
                append((inside, count_in, ones_in))
            count_out = count - count_in
            if count_out == 1:
                singletons += 1
            else:
                append((rows_in ^ inside, count_out, ones - ones_in))
        return refined, singletons

    def coarse(x: int) -> float:
        source = full
        for y in histograms:
            if not x & ~y and y.bit_count() < source.bit_count():
                source = y
        if source == full and not by_row:
            for rx, y in rows:
                by_row[rx] = by_row.get(rx, 0) + (1 | y << shift)
        histogram = by_row if source == full else histograms[source]
        merged = histograms[x] = _coarsen(histogram, x)
        if len(histograms) > _KERNEL_HISTOGRAMS:
            del histograms[next(iter(histograms))]
        values = list(merged.values())
        singletons = values.count(1) + values.count(lone_one)
        return singletons / t + reduce(add, map(terms.__getitem__, values), 0.0)

    def mce(x: int) -> float:
        check_element(x, n)
        s = x.bit_count()
        w = max(s - 1, 0)
        while slots[w] is None or slots[w][0] & ~x:
            w -= 1
        if w < s - 1 and (s > _KERNEL_MAX_WIDTH or t < _KERNEL_ROWS_PER_PART << s):
            return coarse(x)
        base, parts, singletons = slots[w]
        rest = x ^ base
        while rest:
            b = rest & -rest
            rest ^= b
            parts, singletons = refine(parts, singletons, features[b.bit_length() - 1])
        slots[s] = (x, parts, singletons)
        mixed = [part for part in parts if 0 < part[2] < part[1]]
        mixed.sort(key=_first_item, reverse=True)
        acc = 0.0
        for _, count, ones in mixed:
            acc += terms[count | ones << shift]
        return singletons / t + acc

    return mce


# Two perf_counter reads take about 0.12-0.15 us; timing every call of a
# subset_sum cost (about 1 us) spent a fifth of a ubb or sffs solve on
# them. A call under _CHEAP_CALL_S, about 20 times the reads, is cheap:
# after _SAMPLE_EVERY cheap timed calls in a row the evaluator times one
# fresh call in _SAMPLE_EVERY, and a timed call pays at most about 5 % for
# its clock. mce calls on 1000-row tables take 4-290 us and stay timed.
_CHEAP_CALL_S = 3e-6
_SAMPLE_EVERY = 16


class BudgetExhausted(Exception):
    """Control signal: the node budget is spent, solvers unwind and report best-so-far."""


class TargetReached(Exception):
    """Control signal: a fresh cost met the cost target, solvers unwind and report it."""


class CostEvaluator:
    """Memoizing cost oracle with instrumentation and stop criteria; one per run.

    The memo maps each element evaluated to its cost; it is the run's one
    record of what it computed, and the run's report (best cost, minima)
    is drawn from it. computed_nodes equals the number of distinct
    elements evaluated; repeat lookups hit the memo and do not count.
    Both stop criteria raise: the call that would exceed a node budget
    raises BudgetExhausted instead, and a fresh value at or below the cost
    target is memoized, then raises TargetReached. The criteria and the
    degree are checked before the cost function is built, else
    ValueError: a budget must be a non-negative int, a target a number
    other than NaN (bools are neither; -inf never fires, inf or an int
    past float range fires at once), and n, needed for a bare callable,
    must equal an Instance's degree.

    It is also the run contract: a solver builds it before anything else
    reads n, searches inside ``with ev:`` and returns report.conclude(name,
    ev, ...). Entering sets started, the run's clock; leaving sets stop to
    the BudgetExhausted or TargetReached that ended the block, else None,
    and swallows only those two.

    The cost function, not the evaluator, refuses an element out of range
    with ValueError: every Instance kernel does, and a bare callable is
    wrapped by checked_cost, which also refuses a non-finite or non-numeric
    cost. Instance costs are finite by construction (explicit tables are
    checked when built). The budget is checked first, so once it is spent
    an element out of range raises BudgetExhausted.

    The stopwatch: each fresh evaluation is timed while calls are
    expensive, and elapsed_in_cost sums the seconds of the timed_calls.
    Once the last _SAMPLE_EVERY (16) timed calls each took under
    _CHEAP_CALL_S (3 us), only one fresh call in 16 is timed; the others
    run with no clock read. A timed call of 3 us or more returns it to
    timing every call. time_in_cost() credits each untimed call with the
    median cheap timed call, so a slow sample (a cold call, a GC pause)
    is counted once.
    """

    __slots__ = (
        "fn",
        "n",
        "memo",
        "node_budget",
        "cost_target",
        "elapsed_in_cost",
        "timed_calls",
        "_cheap_calls",
        "_cheap_streak",
        "_untimed_left",
        "started",
        "stop",
    )

    def __init__(
        self,
        cost: Instance | Callable[[int], float],
        n: int | None = None,
        node_budget: int | None = None,
        cost_target: float | None = None,
    ) -> None:
        if node_budget is not None and (type(node_budget) is not int or node_budget < 0):
            raise ValueError(f"node budget must be a non-negative int, got {node_budget!r}")
        if cost_target is not None and (
            isinstance(cost_target, bool)
            or not isinstance(cost_target, (int, float))
            or cost_target != cost_target
        ):
            raise ValueError(f"cost target must be a number other than NaN, got {cost_target!r}")
        if n is not None:
            check_degree(n)
        if isinstance(cost, Instance):
            if n is not None and n != cost.n:
                raise ValueError(f"degree {n} does not match the instance's degree {cost.n}")
            self.fn = cost.cost_function()
            self.n = cost.n
        else:
            if n is None:
                raise ValueError("a bare cost callable needs an explicit degree")
            self.fn = checked_cost(cost, n)
            self.n = n
        self.memo: dict[int, float] = {}
        self.node_budget = node_budget
        self.cost_target = cost_target
        self.elapsed_in_cost = 0.0
        self.timed_calls = 0
        self._cheap_calls: list[float] = []
        self._cheap_streak = 0
        self._untimed_left = 0

    @property
    def computed_nodes(self) -> int:
        return len(self.memo)

    def evaluate(self, x: int) -> float:
        memo = self.memo
        value = memo.get(x)
        if value is not None:
            return value
        if self.node_budget is not None and len(memo) >= self.node_budget:
            raise BudgetExhausted
        untimed_left = self._untimed_left
        if untimed_left:
            self._untimed_left = untimed_left - 1
            value = self.fn(x)
        else:
            start = perf_counter()
            value = self.fn(x)
            seconds = perf_counter() - start
            self.elapsed_in_cost += seconds
            self.timed_calls += 1
            if seconds < _CHEAP_CALL_S:
                self._cheap_calls.append(seconds)
                self._cheap_streak += 1
                if self._cheap_streak >= _SAMPLE_EVERY:
                    self._untimed_left = _SAMPLE_EVERY - 1
            else:
                self._cheap_streak = 0
        memo[x] = value
        if self.cost_target is not None and value <= self.cost_target:
            raise TargetReached
        return value

    def time_in_cost(self) -> float:
        """Seconds in the cost function: the timed calls' sum, plus the
        median cheap timed call for each fresh evaluation left untimed."""
        untimed = len(self.memo) - self.timed_calls
        if not untimed:
            return self.elapsed_in_cost
        cheap = sorted(self._cheap_calls)
        return self.elapsed_in_cost + untimed * cheap[len(cheap) // 2]

    def __enter__(self) -> CostEvaluator:
        self.started = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop = exc if isinstance(exc, (BudgetExhausted, TargetReached)) else None
        return self.stop is not None


class Witness(NamedTuple):
    """A chain triple z <= y <= x with cost(y) > max(cost(z), cost(x))."""

    z: int
    y: int
    x: int


def verify_decomposable(
    instance: Instance,
    mode: str = "exhaustive",
    chains: int = DEFAULT_CHAINS,
    seed: int = 0,
) -> Witness | None:
    """Check that the instance cost is U-shaped along chains.

    Exhaustive mode covers every nested triple (degree capped at 10): a
    violation at y exists iff some subset of y and some superset of y are
    both strictly cheaper, so per-element subset/superset minima decide it.
    Sampled mode draws ``chains`` random maximal chains (seeded
    permutations), at least one, and checks every index triple along each,
    evaluating each distinct mask once. Returns the first violating triple
    found, or None.
    """
    fn = instance.cost_function()
    n = instance.n
    if mode == "exhaustive":
        if n > _VERIFY_MAX_DEGREE:
            raise ValueError(f"exhaustive verification is capped at degree {_VERIFY_MAX_DEGREE}")
        size = 1 << n
        cost = [fn(m) for m in range(size)]
        min_below = cost[:]
        min_above = cost[:]
        for b in range(n):
            bit = 1 << b
            for m in range(size):
                if m & bit:
                    if min_below[m ^ bit] < min_below[m]:
                        min_below[m] = min_below[m ^ bit]
                else:
                    if min_above[m | bit] < min_above[m]:
                        min_above[m] = min_above[m | bit]
        for y in range(size):
            cy = cost[y]
            if min_below[y] < cy and min_above[y] < cy:
                z = next(s for s in range(size) if s & ~y == 0 and cost[s] < cy)
                x = next(s for s in range(size) if y & ~s == 0 and cost[s] < cy)
                return Witness(z, y, x)
        return None
    if mode != "sampled":
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if chains < 1:
        raise ValueError(f"sampled verification needs at least one chain, got {chains}")
    rng = random.Random(seed)
    order = list(range(n))
    seen: dict[int, float] = {}
    for _ in range(chains):
        rng.shuffle(order)
        chain = [0]
        m = 0
        for b in order:
            m |= 1 << b
            chain.append(m)
        for e in chain:
            if e not in seen:
                seen[e] = fn(e)
        values = [seen[e] for e in chain]
        for j in range(1, n):
            vj = values[j]
            i = next((i for i in range(j) if values[i] < vj), None)
            if i is None:
                continue
            k = next((k for k in range(j + 1, n + 1) if values[k] < vj), None)
            if k is not None:
                return Witness(chain[i], chain[j], chain[k])
    return None


def generate_subset_sum_instance(
    n: int, seed: int, weight_max: int = DEFAULT_WEIGHT_MAX
) -> Instance:
    """Seeded random subset-sum instance: weights in [1, weight_max], target in [0, sum]."""
    check_degree(n)
    if weight_max < 1:
        raise ValueError("weight_max must be at least 1")
    rng = random.Random(seed)
    weights = tuple(rng.randint(1, weight_max) for _ in range(n))
    target = rng.randint(0, sum(weights))
    return Instance(n=n, kind=SUBSET_SUM, weights=weights, target=target)


def generate_sample_table(
    n: int,
    rows: int,
    seed: int,
    noise: float = DEFAULT_SAMPLE_NOISE,
) -> SampleTable:
    """Synthetic sample table with a planted informative feature subset.

    The label is the parity of max(1, n // 3) planted features, flipped with
    the given noise probability, which must lie in [0, 1]; the remaining
    features are uninformative.
    """
    check_degree(n)
    if rows < 1:
        raise ValueError("need at least one row")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be a probability within [0, 1], got {noise}")
    rng = random.Random(seed)
    planted = 0
    for b in rng.sample(range(n), max(1, n // 3)):
        planted |= 1 << b
    out = []
    for _ in range(rows):
        x = rng.getrandbits(n)
        y = (x & planted).bit_count() & 1
        if rng.random() < noise:
            y ^= 1
        out.append((x, y))
    return SampleTable(n=n, rows=tuple(out))


def generate_decomposable_explicit(
    n: int,
    seed: int,
    weight_max: int = DEFAULT_PLATEAU_WEIGHT_MAX,
    noise: float = DEFAULT_PLATEAU_NOISE,
) -> Instance:
    """Random explicit instance that is U-shaped along every chain.

    Costs are max(0, omitted-weight excess, included-weight excess) for two
    independent integer weight vectors: the first term falls along any
    chain, the second rises, so their maximum is U-shaped on every chain by
    construction. Integer weights leave exact plateaus, the landscape class
    where the uncorrected search loses minima. Without noise the first table
    drawn is returned unchecked. Optional uniform noise reshapes the
    plateaus; noisy candidates are rejected and redrawn until exhaustive
    verification passes, so noise needs a degree of at most 10. A negative
    weight_max, a negative or non-finite noise, noise above degree 10, and a
    noise so large that every draw fails raise ValueError.
    """
    check_degree(n)
    if weight_max < 0:
        raise ValueError(f"weight_max must not be negative, got {weight_max}")
    if not (noise >= 0 and math.isfinite(noise)):
        raise ValueError(f"noise must be finite and not negative, got {noise}")
    if noise and n > _VERIFY_MAX_DEGREE:
        raise ValueError(f"noise is verified exhaustively, only up to degree {_VERIFY_MAX_DEGREE}")
    rng = random.Random(seed)
    size = 1 << n
    for _ in range(_EXPLICIT_ATTEMPTS):
        omit = [rng.randint(0, weight_max) for _ in range(n)]
        include = [rng.randint(0, weight_max) for _ in range(n)]
        total_omit = sum(omit)
        slack_omit = rng.randint(0, max(1, total_omit))
        slack_include = rng.randint(0, max(1, sum(include)))
        s_omit = [0] * size
        s_include = [0] * size
        for m in range(1, size):
            b = m & -m
            i = b.bit_length() - 1
            s_omit[m] = s_omit[m ^ b] + omit[i]
            s_include[m] = s_include[m ^ b] + include[i]
        costs = tuple(
            max(0, total_omit - s_omit[m] - slack_omit, s_include[m] - slack_include)
            + (rng.random() * noise if noise else 0.0)
            for m in range(size)
        )
        instance = Instance(n=n, kind=EXPLICIT, costs=costs)
        if not noise or verify_decomposable(instance) is None:
            return instance
    raise ValueError(
        f"no decomposable candidate in {_EXPLICIT_ATTEMPTS} attempts: noise {noise} is too large"
    )


def instance_suffix(kind: str) -> str:
    """The suffix of an instance file of kind: .txt for mce, .json for the rest.

    The one rule of instance file names: an mce instance is a sample table
    in a .txt file, and every other kind is JSON. parse_instance reads a
    .txt file as a sample table and any other file as JSON, and
    check_instance_path refuses a path that parse_instance would misread.
    """
    return ".txt" if kind == MCE else ".json"


def check_instance_path(kind: str, path: str | Path) -> None:
    """Refuse, with a ValueError naming path, a path that parse_instance
    would misread as a file of another kind (see instance_suffix)."""
    mce = kind == MCE
    if (Path(path).suffix == instance_suffix(MCE)) != mce:
        must = "must" if mce else "must not"
        raise ValueError(f"{path}: a file of kind {kind} {must} end in {instance_suffix(MCE)}")


def save_instance(instance: Instance, path: str | Path) -> None:
    """Write an instance file of any kind, in the form parse_instance reads.

    An mce instance is written as its sample table: a header line
    'n=<n> t=<rows>', then one '<vector> <label>' line per row. subset_sum
    and explicit instances are written as JSON. A path that ends in .txt
    for any kind but mce, or in anything else for mce, is refused with a
    ValueError before anything is written (check_instance_path).
    """
    check_instance_path(instance.kind, path)
    if instance.kind == MCE:
        table = instance.samples
        lines = [f"n={table.n} t={table.t}"]
        lines.extend(f"{render_element(x, table.n)} {y}" for x, y in table.rows)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    if instance.kind == SUBSET_SUM:
        payload = {
            "n": instance.n,
            "kind": SUBSET_SUM,
            "weights": list(instance.weights),
            "target": instance.target,
        }
    else:
        payload = {
            "n": instance.n,
            "kind": EXPLICIT,
            "costs": {
                render_element(m, instance.n): instance.costs[m]
                for m in range(1 << instance.n)
            },
        }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


@contextmanager
def errors_name(path: str | Path) -> Iterator[None]:
    """Re-raise a ValueError from the block as one whose message starts with path."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_instance(path: str | Path) -> Instance:
    return parse_instance(Path(path).read_bytes(), path)


def parse_instance(data: bytes, path: str | Path) -> Instance:
    """The instance in the bytes of any instance file; errors name path.

    The bytes are decoded as UTF-8 here, so a file that is not UTF-8 is an
    error that names path too. The suffix of path picks the form (see
    instance_suffix): a .txt file holds a sample table, read as an mce
    instance, and any other file the JSON form.
    """
    with errors_name(path):
        text = data.decode("utf-8")
        if Path(path).suffix == instance_suffix(MCE):
            return mce_instance(_table_from(text))
        return _instance_from(text)


def _instance_from(text: str) -> Instance:
    """The instance in the JSON form save_instance writes."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError("instance file must hold a JSON object")
    kind = payload.get("kind")
    n = payload.get("n")
    if type(n) is not int:
        raise ValueError("missing integer field 'n'")
    check_degree(n)
    if kind == SUBSET_SUM:
        weights = payload.get("weights")
        target = payload.get("target")
        if not isinstance(weights, list):
            raise ValueError("'weights' must be a list of ints")
        return Instance(n=n, kind=SUBSET_SUM, weights=tuple(weights), target=target)
    if kind == EXPLICIT:
        raw = payload.get("costs")
        if not isinstance(raw, dict):
            raise ValueError("'costs' must be an object")
        if n > MAX_EXPLICIT_DEGREE:
            raise ValueError(f"explicit instances capped at degree {MAX_EXPLICIT_DEGREE}")
        size = 1 << n
        if len(raw) != size:
            raise ValueError(f"explicit cost table must have all {size} subsets")
        costs = [0.0] * size
        for key, value in raw.items():
            m = parse_element(key, n)
            if not is_finite_number(value):
                raise ValueError(f"cost of {key!r} must be a finite number")
            costs[m] = float(value)
        return Instance(n=n, kind=EXPLICIT, costs=tuple(costs))
    raise ValueError(f"unknown instance kind {kind!r}")


def _table_from(text: str) -> SampleTable:
    """The table in the text form save_instance writes for an mce instance."""
    raw = text.splitlines()
    lines = [line.strip() for line in raw if line.strip()]
    if not lines:
        raise ValueError("empty sample file")
    declared_n = declared_t = None
    if lines[0].startswith("n="):
        head = lines.pop(0).split()
        try:
            fields = dict(part.split("=", 1) for part in head)
            declared_n = int(fields["n"])
            declared_t = int(fields["t"])
        except (ValueError, KeyError) as exc:
            raise ValueError(f"malformed header {head!r}") from exc
    rows = []
    n = declared_n
    for line in lines:
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("0", "1"):
            raise ValueError(f"malformed sample row {line!r}")
        if n is None:
            n = len(parts[0])
        rows.append((parse_element(parts[0], n), int(parts[1])))
    if declared_t is not None and declared_t != len(rows):
        raise ValueError(f"header declares t={declared_t} but file has {len(rows)} rows")
    return SampleTable(n=n, rows=tuple(rows))


def mce_instance(table: SampleTable) -> Instance:
    return Instance(n=table.n, kind=MCE, samples=table)
