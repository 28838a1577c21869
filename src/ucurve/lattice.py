"""Boolean-lattice primitives.

Subsets of the ground set are plain ``int`` bit masks of width ``n``
(the instance degree). Bit ``i`` of a mask is feature ``i``; the textual
characteristic vector puts feature 0 in the leftmost character, so
``"1110"`` is the mask 0b0111. All solvers share this encoding.

The module provides the textual form, restriction antichains with
interval coverage tests, and extraction of minimal/maximal elements of
the remaining search space.
"""

from __future__ import annotations

from functools import partial

LOWER = "lower"
UPPER = "upper"

MAX_DEGREE = 64

# Coverage bitmaps cost 2**n bytes per restriction side; above this degree
# covers() falls back to scanning the antichain.
_ACCEL_MAX_DEGREE = 20


def check_degree(n: int) -> None:
    """Raise ValueError unless n is an int (not a bool) in 1..MAX_DEGREE."""
    if type(n) is not int or not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be an int in 1..{MAX_DEGREE}, got {n!r}")


def check_element(x: int, n: int) -> None:
    """Raise ValueError unless x is a valid width-n element."""
    if x < 0 or x >> n:
        raise ValueError(f"element {x} out of range for degree {n}")


def full_set(n: int) -> int:
    """The mask containing all n features."""
    check_degree(n)
    return (1 << n) - 1


def render_element(x: int, n: int) -> str:
    """Characteristic vector of x, leftmost character is feature 0."""
    check_element(x, n)
    return "".join("1" if x >> i & 1 else "0" for i in range(n))


def parse_element(text: str, n: int | None = None) -> int:
    """Inverse of render_element; width is len(text) unless n pins it."""
    if n is not None and len(text) != n:
        raise ValueError(f"expected a width-{n} vector, got {text!r}")
    if not text or len(text) > MAX_DEGREE:
        raise ValueError(f"characteristic vector must have 1..{MAX_DEGREE} characters")
    x = 0
    for i, ch in enumerate(text):
        if ch == "1":
            x |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid characteristic vector {text!r}")
    return x


class RestrictionSet:
    """An antichain of subsets that removes intervals from the search space.

    With LOWER orientation each member R removes the interval from the empty
    set up to R; with UPPER orientation it removes the interval from R up to
    the full set. ``update`` keeps the members an antichain: an element
    already covered is dropped, and inserting an element absorbs the members
    its interval swallows. ``members`` lists them in mask order. A set
    starts empty, and ``update`` and ``insert_seed`` are the ways in.

    For n <= 20 a per-degree coverage bitmap is the set's one record of
    its members and coverage. Each byte tags one lattice element: 0
    uncovered, 1 covered, 2 a member when inserted; the tag-2 bytes contain
    the antichain (see ``insert_seed``), and ``members`` reads it off them.
    ``_flip`` is 0 for LOWER and ``full`` for UPPER; XOR with it maps
    UPPER onto LOWER, so both orientations share one code path. Take
    LOWER. Marking writes the new interval in blocks. Let R be the
    longest run of consecutive set bits of x, L bits from bit a. Each y
    inside x that keeps R's bits heads the block ``{y ^ t : t ⊆ R}``, the
    2**L masks from ``y & ~R`` up to y in steps of 2**a, and one slice
    assignment writes it. The blocks partition the interval. The walk
    runs over the heads only: it is a spanning tree of the interval with
    R's bits fixed, in which a child reached from y by clearing bit b may
    only clear bits above b further (exactly the bits its parent has still
    to try), and it stops at a child that is already covered.
    The walk is exact. The covered part of the lattice is closed downward,
    so a covered head's block and its whole subtree were covered already,
    and pruning there loses nothing. The uncovered part is closed upward,
    so for every newly covered z inside x the head ``z | R`` and every
    head between it and x were uncovered: the tree path to ``z | R``,
    which clears the bits of x - (z | R) lowest first, runs through
    uncovered heads only, and each block that holds a newly covered
    element is written exactly once. A block may rewrite covered bytes. A
    1 stays 1 and a 2 becomes 1, and such a 2 is either a member that x
    absorbs or a stale seed tag (see ``insert_seed``), which nothing reads:
    ``members`` filters it out, and no node on ucs's DFS stack carries one.
    So coverage, ``members`` and every DFS liveness test read what a walk
    of single masks would leave. Marking also does the absorption. Take a
    member r properly inside x. Every proper superset of r inside x was
    uncovered, or a member strictly containing r would exist and the set
    would not be an antichain. If r lacks a bit of R, its head ``r | R``
    is such a superset, so that block is written and r demoted to 1.
    Otherwise r is a head, and its tree parent, r plus the highest bit of
    x - r, is reached, meets r, finds the tag 2 and demotes it. An insert
    therefore costs O(n) Python steps per block it reaches, plus one
    C-level slice write of 2**L bytes per block, and absorption O(1) per
    absorbed member. UPPER is the same read through ``_flip``: R is the
    longest run of ``x ^ full``, its bits are clear in every head y, and
    ``y & ~R == y``.
    Above ``_ACCEL_MAX_DEGREE`` (20), the one switch between the paths, the
    set keeps the antichain itself, each member stored XOR ``_flip``, so
    that there too an UPPER set reads as a LOWER one: ``covers`` scans it,
    an insert filters it, and ``members`` un-flips each member it reads.
    ``_insert`` is chosen when the set is built, the way
    ``covered`` is: ``_mark`` bound to the bitmap and the flip, or
    ``_absorb``.

    ``insert_seed`` is the insert for the answer of ``minimal_element``
    (LOWER) or ``maximal_element`` (UPPER). That answer's proper subsets
    (supersets) are all covered already, so its insert covers the answer
    alone, and with the bitmap it writes the answer's tag 2 and nothing
    else. A member among the answer's n neighbours on that side keeps its
    tag 2 though the answer now contains it: a stale tag. Only ``members``
    and ucs's DFS liveness test tell tag 2 from tag 1. ``members`` keeps a
    tag-2 mask x only if none of its outward neighbours ``x ^ b``, for the
    bits b of ``full ^ x ^ _flip`` (the supersets for LOWER), is covered.
    The covered part of a LOWER set is closed downward, so that leaves the
    tag-2 masks with no covered proper superset: the exact antichain. The
    DFS never meets a stale tag (see ucs). Without the bitmap the insert
    is ``_absorb``. It checks the mask's range and that the mask is
    uncovered first. It makes no ``covers`` call, so ``covers`` is called
    once per ``update``.

    ``full`` is the mask of all n features.

    ``covered(x)`` is the unchecked coverage lookup for hot loops. It
    returns the tag on both paths: with the bitmap it is the bitmap's own
    item lookup, otherwise a membership test and a scan of the antichain.
    It is only defined for masks the caller knows are in range: a negative
    mask reads the bitmap from its end and an oversized one raises
    IndexError. ``covers`` keeps the range check.

    With the bitmap, the set also keeps the cursor of ``minimal_element``
    (LOWER) or ``maximal_element`` (UPPER); see there.
    """

    __slots__ = (
        "orientation", "n", "covered", "_members", "full", "_flip", "_cover", "_cursor", "_insert"
    )

    def __init__(self, orientation: str, n: int) -> None:
        if orientation not in (LOWER, UPPER):
            raise ValueError(f"orientation must be {LOWER!r} or {UPPER!r}")
        check_degree(n)
        self.orientation = orientation
        self.n = n
        self.full = (1 << n) - 1
        self._flip = 0 if orientation == LOWER else self.full
        if n <= _ACCEL_MAX_DEGREE:
            self._cover = bytearray(1 << n)
            self._members = None
            self.covered = self._cover.__getitem__
            # bound to the bitmap, not to self: no cycle
            self._insert = partial(_mark, self._cover, self._flip)
        else:
            self._cover = None
            self._members = {}
            self.covered = self._scan
            self._insert = self._absorb
        self._cursor = self._flip

    @property
    def members(self) -> list[int]:
        """The antichain, in mask order."""
        cover = self._cover
        if cover is None:
            return sorted(m ^ self._flip for m in self._members)
        outward = self.full ^ self._flip
        found = []
        x = cover.find(2)
        while x >= 0:
            # a stale tag 2 has a covered outward neighbour
            bits = outward ^ x
            while bits:
                b = bits & -bits
                if cover[x ^ b]:
                    break
                bits ^= b
            else:
                found.append(x)
            x = cover.find(2, x + 1)
        return found

    def covers(self, x: int) -> bool:
        """True iff some member's interval contains x."""
        if x < 0 or x >> self.n:
            raise ValueError(f"element {x} out of range for degree {self.n}")
        return self.covered(x) != 0

    def _scan(self, x: int) -> int:
        """The tag of x read off the antichain, for the path without a bitmap."""
        members = self._members
        x ^= self._flip
        if x in members:
            return 2
        return 1 if any(x & ~r == 0 for r in members) else 0

    def update(self, x: int) -> None:
        """Insert x unless already covered; absorb members x dominates."""
        if not self.covers(x):
            self._insert(x)

    def insert_seed(self, x: int) -> None:
        """Insert the cursor's answer x: the uncovered mask whose proper
        subsets (LOWER) or supersets (UPPER) are all covered.

        The result is what ``update(x)`` leaves, without its coverage
        query. Raises ValueError, before anything is written, if x is out
        of range, and RuntimeError if x is covered already.
        """
        if x < 0 or x >> self.n:
            raise ValueError(f"element {x} out of range for degree {self.n}")
        if self.covered(x):
            raise RuntimeError(f"seed {x:#x} is covered already")
        cover = self._cover
        if cover is None:
            self._absorb(x)
        else:
            cover[x] = 2

    def _absorb(self, x: int) -> None:
        """Insert uncovered x into the antichain without a bitmap."""
        members = self._members
        x ^= self._flip
        # drop the members x dominates: properly contained in it, read flipped
        absorbed = [r for r in members if not r & ~x]
        for r in absorbed:
            del members[r]
        members[x] = None

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        vecs = [render_element(m, self.n) for m in self.members]
        return f"RestrictionSet({self.orientation}, n={self.n}, members={vecs})"


# 2**L bytes of tag 1, a block of a run of L bits; built when first needed
_BLOCKS: list[bytes | None] = [None] * (MAX_DEGREE + 1)


def _mark(cover: bytearray, flip: int, x: int) -> None:
    """Tag x 2 and the newly covered elements of its interval 1, demoting members on the way.

    The block walk of RestrictionSet. It finds R, the longest run of set
    bits of ``d = x ^ flip`` (the empty run when d is 0), and walks the
    bits of ``d ^ R``, clearing them for LOWER (flip 0) and setting them
    for UPPER (flip full, where ``y ^ b == y | b`` since b is clear in y).
    A child reached by flipping bit b may only flip bits above b further.
    x and each uncovered child y write their block with one slice,
    ``cover[y & ~R : (y | R) + 1 : 1 << a] = ones``, where a is the lowest
    bit of R; a block is an arithmetic progression because R's bits are
    consecutive. A covered child stops the walk there, and a tag-2 child
    is demoted to 1. The root is walked without a push, and a child is
    pushed only if it has bits left to try.
    """
    d = x ^ flip
    # after k rounds bit i of t is set iff bits i .. i + k of d are, so the
    # last t left before it empties marks where the longest runs begin
    t = starts = d
    width = 0
    while t:
        starts = t
        t &= t >> 1
        width += 1
    # d = 0 leaves the empty run, and the block {x}
    step = starts & -starts or 1
    run = step * ((1 << width) - 1)
    ones = _BLOCKS[width]
    if ones is None:
        ones = _BLOCKS[width] = b"\x01" * (1 << width)
    outside = ~run
    cover[x & outside : (x | run) + 1 : step] = ones
    cover[x] = 2
    # pairs of (element, the bits it may still flip)
    stack = []
    y = x
    bits = d ^ run
    while True:
        while bits:
            b = bits & -bits
            bits ^= b
            child = y ^ b
            tag = cover[child]
            if not tag:
                cover[child & outside : (child | run) + 1 : step] = ones
                if bits:
                    stack.append(child)
                    stack.append(bits)
            elif tag == 2:
                cover[child] = 1
        if not stack:
            return
        bits = stack.pop()
        y = stack.pop()


def _extreme(r: RestrictionSet) -> int | None:
    """The answer of minimal_element (LOWER) or maximal_element (UPPER).

    Both walks run on plain masks toward ``end = full ^ r._flip``, the
    full set for LOWER and the empty set for UPPER; the cursor starts at
    the other end, ``r._flip``. Read in ``x ^ r._flip``, an UPPER set is a
    LOWER one, so one cursor step serves both sides: h is the highest bit
    where x differs from end, and the step flips h and every bit above it.
    For LOWER that is the bit-reversed increment, for UPPER the decrement.
    The greedy walk starts at end and flips each bit in ascending order
    while the element stays uncovered. The answer is None if end is
    covered, for then every mask is.
    """
    full = r.full
    end = full ^ r._flip
    if r.covered(end):
        return None
    cover = r._cover
    if cover is not None:
        # end is uncovered, so a covered x always differs from it
        x = r._cursor
        while cover[x]:
            h = 1 << ((end ^ x).bit_length() - 1)
            x ^= full ^ (h - 1)
        r._cursor = x
        return x
    covered = r.covered
    # bit b still agrees with end when its turn comes: only lower bits moved
    x = end
    for b in range(r.n):
        candidate = x ^ (1 << b)
        if not covered(candidate):
            x = candidate
    return x


def minimal_element(r_lower: RestrictionSet) -> int | None:
    """A minimal element of the space left by r_lower, or None if empty.

    The answer is the first uncovered mask in bit-reversed order, the order
    of masks read with bit 0 as the most significant digit. A proper subset
    comes earlier in that order, so the first uncovered mask is minimal.

    Greedy descent finds it from the full set: one ascending pass over the
    bits, clearing each bit whose removal keeps the element uncovered. The
    uncovered part is closed upward, so some uncovered mask agrees with the
    bits decided so far and has bit b clear iff the current element with
    bit b cleared is uncovered; the pass is the lexicographic minimisation.

    With a bitmap, the collection's cursor steps through that order
    instead. Coverage only ever grows, so every mask the cursor has passed
    stays covered and the first uncovered mask never lies behind it: the
    answer is the same element, and a whole run of queries costs O(2**n)
    steps in total rather than O(n) lookups per query. The invariant is
    that every mask before the cursor in bit-reversed order is covered.
    A step is a bit-reversed increment, which clears the run of set bits
    at the top and sets the highest clear bit h below it, that is, flips
    h and every bit above it. With ``h = 1 << ((full ^ x).bit_length() - 1)`` that is
    ``x ^= full ^ (h - 1)``, with no loop over the bits. The walk is
    ``_extreme``, shared with maximal_element.
    """
    if r_lower.orientation != LOWER:
        raise ValueError("minimal_element needs a LOWER restriction collection")
    return _extreme(r_lower)


def maximal_element(r_upper: RestrictionSet) -> int | None:
    """Dual of minimal_element over the space left by r_upper.

    The answer is the last uncovered mask in bit-reversed order; the cursor
    steps backward from the full set with bit-reversed decrements, and
    every mask after the cursor in that order is covered. A decrement
    flips the highest set bit and every bit above it, the same step as
    the increment with "set" for "clear", so ``_extreme`` takes both.
    """
    if r_upper.orientation != UPPER:
        raise ValueError("maximal_element needs an UPPER restriction collection")
    return _extreme(r_upper)

