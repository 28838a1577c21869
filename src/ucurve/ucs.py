"""The corrected lattice search.

The main loop repeatedly draws a direction, takes a minimal (going up) or
maximal (going down) element A of the remaining space, removes A's interval
on that side, and, if A still survives the opposite restrictions, runs a
depth-first search seeded at A. The DFS expands the head of a stack toward
any adjacent element of cost <= the head's, and prunes with four rules that
only ever remove regions provably costlier than an already-recorded
element, so no global minimum is lost:

* an element strictly costlier than an upper neighbour drags its whole
  lower interval along (and dually for upper intervals);
* an element all of whose lower (upper) neighbours are gone can itself be
  removed, since its interval minus itself is gone already.

A node's adjacent mask holds the bits whose neighbour is not yet known
covered on that neighbour's side; its bits inside the element are the
lower flag and the rest the upper flag, so each node rule is written once
for both sides. An empty flag licenses the interval removal.

A pruning step costs what it changes, not what the run has seen: it only
updates a restriction set, and the DFS learns of it lazily. A stacked
node is dead iff either side's coverage tag for its element is 1 (covered
but not a member). Nodes are pushed only while uncovered on both sides
(the seed is a member on its own side), and inside a DFS only
lower_pruning and upper_pruning add restrictions, each covering the proper
subsets (supersets) of the element it inserts; so tag 1 marks exactly the
nodes such a call has removed, and tags never go back. The tags alone
decide liveness (dfs gives the proof). The DFS pops dead nodes when they
reach its stack top, and it ends when the stack empties, with no flush:
every node with an empty flag is covered on that side by then.

A is minimal (maximal), so the rest of its interval is gone already and
its removal covers A alone: RestrictionSet.insert_seed does it without a
coverage query, and with the bitmap it writes A's tag and nothing else.
A member among A's neighbours on that side keeps a stale tag 2. The DFS
never reads one: a seed is inserted while no node is stacked, and a
covered mask is never pushed. Many iterations of a run are blocked, A
already being covered on the opposite side, and evaluate nothing; that
insert, the cursor step of minimal_element/maximal_element and the
direction draw are the part of a run's cost that does not grow with the
nodes it evaluates.

A run never shares state. Each node reads its cost from the evaluator
once, when it is pushed (a DFS seed when the main loop picks it), and the
pruning rules read it off the node; the evaluator's memo is the run's one
record of what it computed, and the report is drawn from it. ucs_solve,
like every solver, builds its evaluator before anything else reads n and
searches inside ``with ev:``; the evaluator keeps the clock and ends the
run at either stop it raises, and report.conclude builds the report.
The optional on_event callback receives one dict per push / pop /
restriction update, which is what the CLI --trace flag and the
instrumented no-minimum-loss tests consume; a run stopped by its cost
target ends before the push of the evaluation that met it.
"""

from __future__ import annotations

import random
from typing import Callable

from .cost import CostEvaluator, Instance
from .lattice import (
    LOWER,
    UPPER,
    RestrictionSet,
    maximal_element,
    minimal_element,
)
from .report import SearchReport, conclude

EventCallback = Callable[[dict], None]


class Node:
    """A visited element, its cost and neighbour bookkeeping masks.

    unverified holds the bits not yet examined for expansion. adjacent
    holds the bits whose neighbour is not yet known covered on its side:
    ``adjacent & element`` is the lower flag, the bits toward lower
    neighbours, and ``adjacent & ~element`` the upper flag. Both masks
    start at bits: a fresh node is ``Node(x, full)``, a seed whose own side
    is gone ``Node(a, rest)``. The cost is None until it is read: dfs sets
    it when it pushes the node, and ucs_solve sets it on the seeds it has
    just evaluated.
    """

    __slots__ = ("element", "cost", "unverified", "adjacent")

    def __init__(self, element: int, bits: int):
        self.element = element
        self.cost = None
        self.unverified = bits
        self.adjacent = bits

    def __repr__(self) -> str:
        return (
            f"Node(element={self.element:#x}, unverified={self.unverified:#x}, "
            f"adjacent={self.adjacent:#x})"
        )


# the chance that a main-loop iteration goes up, for ucs and the legacy search
DEFAULT_P_UP = 0.5


def check_p_up(p_up: float) -> None:
    """Raise ValueError unless p_up is an int or float (not a bool) within [0, 1]."""
    if isinstance(p_up, bool) or not isinstance(p_up, (int, float)) or not 0.0 <= p_up <= 1.0:
        raise ValueError(f"p_up must be a number within [0, 1], got {p_up!r}")


def select_unvisited_adjacent(
    y: Node,
    graph: set[int],
    r_lower: RestrictionSet,
    r_upper: RestrictionSet,
) -> Node | None:
    """Pop unverified bits of y (lowest first) until an expandable neighbour shows.

    Returns a fresh node (nothing verified, nothing known covered) for the
    first neighbour that is both inside the current space and not in graph,
    the elements this DFS has pushed, or None when y's unverified set
    empties.
    Along the way y's adjacent mask is maintained: a neighbour found covered
    on its own side of y clears its bit (visited but uncovered neighbours
    clear nothing).
    """
    element = y.element
    full = r_lower.full
    # the lookups of a neighbour's own side and of the other side
    upward = (r_upper.covered, r_lower.covered)
    downward = upward[::-1]
    while y.unverified:
        bit = y.unverified & -y.unverified
        y.unverified ^= bit
        x = element ^ bit
        # x lies on y's lower side iff element holds the bit
        own, other = downward if element & bit else upward
        if own(x):
            y.adjacent &= ~bit
            continue
        if x not in graph and not other(x):
            return Node(x, full)
    return None


def lower_pruning(
    y: Node,
    r_lower: RestrictionSet,
    on_event: EventCallback | None = None,
) -> None:
    """Add y's element to the lower restrictions.

    Its proper subsets in the DFS graph die with it: they now read tag 1.
    """
    r_lower.update(y.element)
    if on_event:
        on_event({"event": "restrict", "side": "lower", "element": y.element})


def upper_pruning(
    y: Node,
    r_upper: RestrictionSet,
    on_event: EventCallback | None = None,
) -> None:
    r_upper.update(y.element)
    if on_event:
        on_event({"event": "restrict", "side": "upper", "element": y.element})


def node_pruning(
    x: Node,
    y: Node,
    r_lower: RestrictionSet,
    r_upper: RestrictionSet,
    on_event: EventCallback | None = None,
) -> None:
    """Prune around the adjacent pair (x, y) when one side is strictly cheaper.

    The costlier node is removed together with its interval away from the
    cheaper one: its lower interval if it is the lower element of the pair,
    else its upper interval. The cheaper node's mask loses the bit toward
    the removed neighbour, and the removed node's mask empties on that side.
    Equal costs fire nothing.
    """
    if x.cost == y.cost:
        return
    bit = x.element ^ y.element
    if bit == 0 or bit & (bit - 1):
        raise ValueError("node_pruning needs adjacent nodes")
    cheap, costly = (x, y) if x.cost < y.cost else (y, x)
    prune, r = (upper_pruning, r_upper) if costly.element & bit else (lower_pruning, r_lower)
    prune(costly, r, on_event)
    cheap.adjacent &= ~bit
    # element ^ r._flip holds the bits on r's side (r._flip is 0 or full)
    costly.adjacent &= ~(costly.element ^ r._flip)


def check_flag(r: RestrictionSet, element: int) -> None:
    """Raise RuntimeError unless every neighbour of element on r's side is covered.

    An empty flag licenses removing element's interval on that side; a
    flag that claims so while a neighbour there is uncovered would remove
    a region nobody examined.
    """
    side = r.orientation
    covered = r.covered
    bits = element ^ r._flip
    while bits:
        b = bits & -bits
        bits ^= b
        if not covered(element ^ b):
            raise RuntimeError(
                f"unsound {side} flag: a {side} neighbour of {element:#x} is uncovered"
            )


def dfs(
    m_node: Node,
    r_lower: RestrictionSet,
    r_upper: RestrictionSet,
    evaluator: CostEvaluator,
    on_event: EventCallback | None = None,
) -> None:
    """Depth-first search from m_node, shrinking the space as it prunes.

    Every node pushed gets its cost from the evaluator once, on push, and so
    does m_node unless its caller has set its cost already; the evaluator's
    memo keeps what the search computed. Both stops propagate from the
    evaluator, so a node whose cost meets the target gets no push event.

    Before an empty flag licenses an interval removal, every neighbour on
    that side is checked to be covered; a node whose flag claims otherwise
    raises RuntimeError instead of removing a region nobody examined.

    m_node's element must be uncovered, or a member, on either side: a
    seed that reads tag 1 is dead on arrival.

    A stacked node is live iff neither side reads tag 1 for it: a node whose
    flags are both empty after its turn has left the stack. It stays only
    by pushing a child x no costlier than itself, and then its flag on x's
    side still holds x's bit. That bit is cleared when the neighbour is
    found covered, and then it is not pushed; node_pruning of x and the
    node empties only the flag away from x; and a flag emptied on x's side
    before would make the node a member there, and x covered. graph keeps
    every element pushed, so none is pushed twice.

    The search ends with no flush. A node's flags change only
    while it is pushed or is the stack top, and after each turn as the top
    an empty flag inserts the node on that side unless the side covers it
    already. A live node takes one more turn as the top before it leaves
    the stack. So when the stack empties, every live node whose flag on a
    side is empty is covered there, and an update at the end would insert
    nothing.
    """
    lower_covered = r_lower.covered
    upper_covered = r_upper.covered
    if m_node.cost is None:
        m_node.cost = evaluator.evaluate(m_node.element)
    graph = {m_node.element}
    stack: list[Node] = [m_node]
    while stack:
        y = stack[-1]
        ye = y.element
        if lower_covered(ye) == 1 or upper_covered(ye) == 1:
            stack.pop()
            continue
        cy = y.cost
        while True:
            x = select_unvisited_adjacent(y, graph, r_lower, r_upper)
            if x is None:
                stack.remove(y)
                if on_event:
                    on_event({"event": "pop", "element": ye})
                break
            stack.append(x)
            graph.add(x.element)
            cx = x.cost = evaluator.evaluate(x.element)
            if on_event:
                on_event({"event": "push", "element": x.element, "cost": cx})
            node_pruning(x, y, r_lower, r_upper, on_event)
            if cx <= cy:
                break
        if not y.adjacent & ye and not lower_covered(ye):
            check_flag(r_lower, ye)
            lower_pruning(y, r_lower, on_event)
        if not y.adjacent & ~ye and not upper_covered(ye):
            check_flag(r_upper, ye)
            upper_pruning(y, r_upper, on_event)


def ucs_solve(
    n: int | None,
    cost: Instance | Callable[[int], float],
    seed: int = 0,
    p_up: float = DEFAULT_P_UP,
    node_budget: int | None = None,
    cost_target: float | None = None,
    on_event: EventCallback | None = None,
) -> SearchReport:
    """Solve the lattice minimization problem; optimal on chain-U-shaped costs.

    Terminates on arbitrary costs: each iteration removes at least its seed
    element from the remaining space whether or not a DFS runs. p_up is
    checked before anything is evaluated.
    """
    check_p_up(p_up)
    ev = CostEvaluator(cost, n, node_budget, cost_target)
    n = ev.n
    draw = random.Random(seed).random
    full = (1 << n) - 1
    r_lower = RestrictionSet(LOWER, n)
    r_upper = RestrictionSet(UPPER, n)
    dfs_calls = 0
    minmax_calls = 0
    with ev:
        while True:
            minmax_calls += 1
            if draw() < p_up:
                own, other, a = r_lower, r_upper, minimal_element(r_lower)
            else:
                own, other, a = r_upper, r_lower, maximal_element(r_upper)
            if a is None:
                break
            blocked = other.covered(a)
            if not blocked:
                cost_a = ev.evaluate(a)
                if on_event:
                    on_event({"event": "push", "element": a, "cost": cost_a})
            # a is the cursor's answer, so inserting it covers a alone
            own.insert_seed(a)
            if on_event:
                on_event({"event": "restrict", "side": own.orientation, "element": a})
            if blocked:
                continue
            # a's own side is gone: only its bits toward the other side are left
            rest = a if own is r_upper else full ^ a
            seed_node = Node(a, rest)
            seed_node.cost = cost_a
            dfs_calls += 1
            dfs(seed_node, r_lower, r_upper, ev, on_event)
    return conclude("ucs", ev, dfs_calls, minmax_calls)
