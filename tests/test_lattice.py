import os
import subprocess
import sys
import unittest.mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucurve.lattice
from conftest import adjacent_elements, in_current_space, package_path
from ucurve.lattice import (
    LOWER,
    UPPER,
    RestrictionSet,
    full_set,
    maximal_element,
    minimal_element,
    parse_element,
    render_element,
)


def restriction_set(orientation, n, members=(), bitmap=None):
    """A RestrictionSet; bitmap=True or False forces the bitmap or the scan path.

    ``_ACCEL_MAX_DEGREE``, read when a set is built, is the one seam that
    picks the path.
    """
    if bitmap is None:
        return RestrictionSet(orientation, n, members)
    with unittest.mock.patch.object(ucurve.lattice, "_ACCEL_MAX_DEGREE", n if bitmap else 0):
        return RestrictionSet(orientation, n, members)


def lower_set(n, members, bitmap=None):
    return restriction_set(LOWER, n, members, bitmap)


def upper_set(n, members, bitmap=None):
    return restriction_set(UPPER, n, members, bitmap)


def brute_covers(orientation, members, x):
    if orientation == LOWER:
        return any(x & ~r == 0 for r in members)
    return any(r & ~x == 0 for r in members)


def run_mask(width, low, extra_bits):
    """A run of width consecutive bits from bit low, with extra_bits set too."""
    mask = ((1 << width) - 1) << low
    for b in extra_bits:
        mask |= 1 << b
    return mask


def tag_2_masks(cover):
    """The masks whose bitmap byte is 2, in mask order."""
    found = []
    x = cover.find(2)
    while x >= 0:
        found.append(x)
        x = cover.find(2, x + 1)
    return found


def greedy_minimal(n, r):
    """Reference descent: clear each bit, lowest first, while uncovered."""
    x = full_set(n)
    if r.covers(x):
        return None
    for b in range(n):
        if x >> b & 1 and not r.covers(x ^ (1 << b)):
            x ^= 1 << b
    return x


def greedy_maximal(n, r):
    if r.covers(0):
        return None
    x = 0
    for b in range(n):
        if not x >> b & 1 and not r.covers(x | (1 << b)):
            x |= 1 << b
    return x


def bit_reversed(x, n):
    """x read with bit 0 as the most significant of n digits."""
    return int(format(x, f"0{n}b")[::-1], 2)


class TestTextForm:
    def test_render_leftmost_is_feature_zero(self):
        assert render_element(0b0111, 4) == "1110"
        assert render_element(0b0110, 4) == "0110"

    def test_parse_examples(self):
        assert parse_element("1110") == 0b0111
        assert parse_element("0001") == 0b1000

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_element("01x1")
        with pytest.raises(ValueError):
            parse_element("")
        with pytest.raises(ValueError):
            parse_element("011", n=4)

    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_round_trip(self, n, data):
        x = data.draw(st.integers(min_value=0, max_value=full_set(n)))
        assert parse_element(render_element(x, n), n) == x


class TestDegree:
    @pytest.mark.parametrize("orientation", [LOWER, UPPER])
    @pytest.mark.parametrize("n", [True, False, 1.0, 0, 65])
    def test_restriction_set_rejects_a_degree_that_is_not_an_int_in_range(self, orientation, n):
        with pytest.raises(ValueError, match="degree"):
            RestrictionSet(orientation, n)

    def test_full_set_rejects_a_bool_degree(self):
        with pytest.raises(ValueError, match="degree"):
            full_set(True)


class TestCovers:
    def test_lower_examples(self):
        r = lower_set(4, [parse_element("1110")])
        assert r.covers(parse_element("0110")) is True
        assert r.covers(parse_element("0001")) is False

    def test_upper_example(self):
        r = upper_set(5, [parse_element("01000")])
        assert r.covers(parse_element("01100")) is True

    def test_width_mismatch_rejected(self):
        r = lower_set(4, [0b0110])
        with pytest.raises(ValueError):
            r.covers(1 << 10)

    @given(
        st.integers(min_value=1, max_value=10),
        st.sampled_from([LOWER, UPPER]),
        st.data(),
    )
    @settings(max_examples=200)
    def test_matches_brute_force_with_and_without_bitmap(self, n, orientation, data):
        full = full_set(n)
        members = data.draw(st.lists(st.integers(0, full), max_size=6))
        fast = restriction_set(orientation, n, members, bitmap=True)
        slow = restriction_set(orientation, n, members, bitmap=False)
        assert fast.members == slow.members
        for x in range(full + 1):
            expected = brute_covers(orientation, fast.members, x)
            assert fast.covers(x) == expected
            assert slow.covers(x) == expected

    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_lower_covering_is_downward_closed(self, n, data):
        full = full_set(n)
        r = lower_set(n, data.draw(st.lists(st.integers(0, full), min_size=1, max_size=4)))
        x = data.draw(st.integers(0, full))
        if r.covers(x):
            sub = data.draw(st.integers(0, full)) & x
            assert r.covers(sub)

    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_upper_covering_is_upward_closed(self, n, data):
        full = full_set(n)
        r = upper_set(n, data.draw(st.lists(st.integers(0, full), min_size=1, max_size=4)))
        x = data.draw(st.integers(0, full))
        if r.covers(x):
            sup = x | data.draw(st.integers(0, full))
            assert r.covers(sup)


class TestUpdate:
    def test_absorbs_proper_subset(self):
        r = lower_set(4, [parse_element("0110")])
        r.update(parse_element("0111"))
        assert [render_element(m, 4) for m in r.members] == ["0111"]

    def test_covered_element_ignored(self):
        r = lower_set(4, [parse_element("1110")])
        r.update(parse_element("0110"))
        assert [render_element(m, 4) for m in r.members] == ["1110"]

    def test_incomparable_element_added(self):
        r = lower_set(4, [parse_element("1000"), parse_element("0100")])
        r.update(parse_element("0011"))
        got = sorted(render_element(m, 4) for m in r.members)
        assert got == ["0011", "0100", "1000"]

    def test_idempotent(self):
        r = lower_set(4, [parse_element("1000")])
        r.update(parse_element("0011"))
        once = list(r.members)
        r.update(parse_element("0011"))
        assert list(r.members) == once

    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from([LOWER, UPPER]),
        st.lists(st.integers(min_value=0, max_value=255), max_size=20),
    )
    @settings(max_examples=200)
    def test_members_stay_an_antichain(self, n, orientation, updates):
        full = full_set(n)
        r = RestrictionSet(orientation, n)
        for x in updates:
            r.update(x & full)
        for i, p in enumerate(r.members):
            for j, q in enumerate(r.members):
                if i != j:
                    assert p & ~q, f"{p:b} contained in {q:b}"

    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from([LOWER, UPPER]),
        st.lists(st.integers(min_value=0, max_value=255), max_size=15),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=200)
    def test_update_preserves_coverage_semantics(self, n, orientation, updates, probe):
        full = full_set(n)
        r = RestrictionSet(orientation, n)
        covered_once = set()
        for x in updates:
            r.update(x & full)
        for x in range(full + 1):
            covered_once.add(x) if r.covers(x) else None
        # coverage equals the union of all updated intervals
        applied = [x & full for x in updates]
        for x in range(full + 1):
            assert r.covers(x) == brute_covers(orientation, applied, x)


class TestBitmapAntichain:
    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from([LOWER, UPPER]),
        st.lists(st.integers(min_value=0, max_value=255), max_size=20),
    )
    @settings(max_examples=200)
    def test_bitmap_tags_exactly_the_members(self, n, orientation, updates):
        full = full_set(n)
        fast = restriction_set(orientation, n, bitmap=True)
        slow = restriction_set(orientation, n, bitmap=False)
        for x in updates:
            fast.update(x & full)
            slow.update(x & full)
            assert fast.members == slow.members
            assert list(fast) == fast.members
            assert repr(fast) == repr(slow)
            assert len(fast) == len(slow) == len(fast.members)
            tagged = [m for m in range(full + 1) if fast._cover[m] == 2]
            assert tagged == sorted(fast.members)
            for m in range(full + 1):
                assert (m in fast.members) == (m in slow.members) == (fast._cover[m] == 2)
                assert slow.covered(m) == fast._cover[m]  # the scan path returns tags too

    @given(st.integers(min_value=9, max_value=16), st.sampled_from([LOWER, UPPER]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_long_runs_of_bits_at_high_degrees(self, n, orientation, data):
        # an insert writes one block per run of consecutive bits, so the masks are
        # mostly runs, with a few other bits set, plus the empty and the full mask
        full = full_set(n)
        bit = st.integers(0, n - 1)
        runs = st.builds(run_mask, st.integers(1, n), bit, st.lists(bit, max_size=3))
        masks = st.one_of(runs, st.sampled_from([0, full]))
        updates = [x & full for x in data.draw(st.lists(masks, min_size=1, max_size=12))]
        fast = restriction_set(orientation, n, bitmap=True)
        slow = restriction_set(orientation, n, bitmap=False)
        for x in updates:
            fast.update(x)
            slow.update(x)
            assert fast.members == slow.members
            assert tag_2_masks(fast._cover) == fast.members
        expected = [brute_covers(orientation, updates, x) for x in range(full + 1)]
        assert [fast.covers(x) for x in range(full + 1)] == expected

    def test_absorbs_several_members_at_once(self):
        r = lower_set(4, [parse_element(v) for v in ("1000", "0100", "0001", "0110")])
        # members come in mask order, and "1000" is the mask 0b0001
        assert [render_element(m, 4) for m in r] == ["1000", "0110", "0001"]
        r.update(parse_element("1110"))
        assert [render_element(m, 4) for m in r] == ["1110", "0001"]
        u = upper_set(4, [parse_element(v) for v in ("1110", "1011", "0111")])
        u.update(parse_element("0100"))
        assert [render_element(m, 4) for m in u] == ["0100", "1011"]

    def test_members_is_a_snapshot(self):
        r = lower_set(3, [0b001])
        snapshot = r.members
        snapshot.append(0b010)
        assert r.members == [0b001]
        with pytest.raises(AttributeError):
            r.members = [0b010]

    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from([LOWER, UPPER]),
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=255), max_size=10),
    )
    def test_covered_agrees_with_covers(self, n, orientation, bitmap, updates):
        full = full_set(n)
        r = restriction_set(orientation, n, [x & full for x in updates], bitmap=bitmap)
        for x in range(full + 1):
            assert bool(r.covered(x)) is r.covers(x)

    @pytest.mark.parametrize("bitmap", [True, False])
    def test_covers_keeps_its_range_check(self, bitmap):
        r = lower_set(4, [0b0110], bitmap=bitmap)
        for x in (-1, 1 << 4):
            with pytest.raises(ValueError):
                r.covers(x)
            with pytest.raises(ValueError):
                r.update(x)


class TestInsertSeed:
    """insert_seed on the cursor's answer must leave what update leaves.

    With the bitmap the tags may differ: a seed insert leaves its
    neighbours' stale tag 2 where update demotes them. Members, coverage
    and the cursor must not.
    """

    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from([LOWER, UPPER]),
        st.booleans(),
        st.lists(
            st.tuples(
                st.sampled_from(["update", "seed", "query"]),
                st.integers(min_value=0, max_value=255),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=300)
    def test_same_state_as_update(self, n, orientation, bitmap, ops):
        full = full_set(n)
        extreme = minimal_element if orientation == LOWER else maximal_element
        seeded = restriction_set(orientation, n, bitmap=bitmap)
        plain = restriction_set(orientation, n, bitmap=bitmap)
        for op, x in ops:
            if op == "update":
                seeded.update(x & full)
                plain.update(x & full)
            else:
                a = extreme(seeded)
                assert a == extreme(plain)
                if op == "seed" and a is not None:
                    seeded.insert_seed(a)
                    plain.update(a)
            assert seeded.members == plain.members
            assert [seeded.covers(m) for m in range(full + 1)] == [
                plain.covers(m) for m in range(full + 1)
            ]
            assert seeded._cursor == plain._cursor
            assert len(seeded) == len(plain)

    @pytest.mark.parametrize("bitmap", [True, False])
    def test_covered_seed_raises(self, bitmap):
        r = lower_set(3, [0b011], bitmap=bitmap)
        u = upper_set(3, [0b100], bitmap=bitmap)
        for rs, x in ((r, 0b001), (r, 0b011), (u, 0b110), (u, 0b100)):
            before = (rs.members, bytes(rs._cover or b""))
            with pytest.raises(RuntimeError, match="covered already"):
                rs.insert_seed(x)
            assert (rs.members, bytes(rs._cover or b"")) == before

    @pytest.mark.parametrize("bitmap", [True, False])
    def test_out_of_range_seed_raises_before_writing(self, bitmap):
        for orientation in (LOWER, UPPER):
            rs = restriction_set(orientation, 3, bitmap=bitmap)
            for x in (-1, 1 << 3):
                with pytest.raises(ValueError, match="out of range"):
                    rs.insert_seed(x)
                assert rs.members == []
                assert not any(rs.covers(m) for m in range(8))

    def test_check_survives_optimized_mode(self):
        script = (
            "from ucurve.lattice import LOWER, RestrictionSet\n"
            "assert False, 'assertions are on'\n"
            "try:\n"
            "    RestrictionSet(LOWER, 3, [0b011]).insert_seed(0b001)\n"
            "except RuntimeError as exc:\n"
            "    print('raised:', exc)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_path(), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: seed 0x1 is covered already")


class TestMinMaxElements:
    def test_minimal_examples(self):
        assert minimal_element(lower_set(2, [])) == 0
        assert minimal_element(lower_set(2, [parse_element("11")])) is None
        assert minimal_element(lower_set(2, [parse_element("10"), parse_element("01")])) == 0b11

    def test_maximal_examples(self):
        assert maximal_element(upper_set(2, [])) == 0b11
        assert maximal_element(upper_set(2, [parse_element("00")])) is None
        assert maximal_element(upper_set(2, [parse_element("10"), parse_element("01")])) == 0

    def test_orientation_checked(self):
        with pytest.raises(ValueError):
            minimal_element(upper_set(2, []))
        with pytest.raises(ValueError):
            maximal_element(lower_set(2, []))

    @given(st.integers(min_value=1, max_value=10), st.booleans(), st.data())
    @settings(max_examples=200)
    def test_minimal_is_sound_against_enumeration(self, n, bitmap, data):
        full = full_set(n)
        members = data.draw(st.lists(st.integers(0, full), max_size=5))
        r = lower_set(n, members, bitmap=bitmap)
        survivors = [x for x in range(full + 1) if not brute_covers(LOWER, r.members, x)]
        got = minimal_element(r)
        if not survivors:
            assert got is None
        else:
            assert got in survivors
            for b in range(n):
                if got >> b & 1:
                    assert (got ^ (1 << b)) not in survivors, "a proper subset survives"

    @given(st.integers(min_value=1, max_value=10), st.booleans(), st.data())
    @settings(max_examples=200)
    def test_maximal_is_sound_against_enumeration(self, n, bitmap, data):
        full = full_set(n)
        members = data.draw(st.lists(st.integers(0, full), max_size=5))
        r = upper_set(n, members, bitmap=bitmap)
        survivors = [x for x in range(full + 1) if not brute_covers(UPPER, r.members, x)]
        got = maximal_element(r)
        if not survivors:
            assert got is None
        else:
            assert got in survivors
            for b in range(n):
                if not got >> b & 1:
                    assert (got | (1 << b)) not in survivors, "a proper superset survives"


    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.tuples(
                st.sampled_from(["lower", "upper", "min", "max"]),
                st.integers(min_value=0, max_value=255),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=300)
    def test_cursor_matches_greedy_and_enumeration(self, n, ops):
        # updates interleaved with queries: the bitmap's cursor must answer
        # exactly what the greedy descent answers, the bit-reversed extreme
        # among the uncovered masks
        full = full_set(n)
        r_lower = lower_set(n, [])
        r_upper = upper_set(n, [])
        assert r_lower._cover is not None and r_upper._cover is not None
        for op, x in ops:
            if op == "lower":
                r_lower.update(x & full)
            elif op == "upper":
                r_upper.update(x & full)
            else:
                r = r_lower if op == "min" else r_upper
                uncovered = [m for m in range(full + 1) if not r.covers(m)]
                if op == "min":
                    got, reference = minimal_element(r), greedy_minimal(n, r)
                    pick = min
                else:
                    got, reference = maximal_element(r), greedy_maximal(n, r)
                    pick = max
                assert got == reference
                expected = pick(uncovered, key=lambda m: bit_reversed(m, n)) if uncovered else None
                assert got == expected

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cursor_steps_to_the_bit_reversed_neighbour(self, n):
        # one covered mask under the cursor: a single step must land on the
        # next mask in bit-reversed order (the previous one going down)
        full = full_set(n)
        order = sorted(range(full + 1), key=lambda m: bit_reversed(m, n))
        r_lower = lower_set(n, [])
        r_upper = upper_set(n, [])
        for m, successor in zip(order, order[1:]):
            r_lower._cover[m] = 1
            r_lower._cursor = m
            assert minimal_element(r_lower) == successor
            r_lower._cover[m] = 0
            r_upper._cover[successor] = 1
            r_upper._cursor = successor
            assert maximal_element(r_upper) == m
            r_upper._cover[successor] = 0


class TestSpaceAndAdjacency:
    def test_in_current_space_examples(self):
        r_l = lower_set(2, [parse_element("10")])
        r_u = upper_set(2, [parse_element("01")])
        assert in_current_space(r_l, r_u, parse_element("11")) is False
        assert in_current_space(r_l, upper_set(2, []), parse_element("01")) is True
        assert in_current_space(r_l, r_u, parse_element("00")) is False

    def test_adjacent_examples(self):
        assert [render_element(x, 2) for x in adjacent_elements(0, 2)] == ["10", "01"]
        assert [render_element(x, 3) for x in adjacent_elements(0b111, 3)] == ["011", "101", "110"]

    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_adjacency_properties(self, n, data):
        x = data.draw(st.integers(0, full_set(n)))
        neighbours = adjacent_elements(x, n)
        assert len(neighbours) == n
        assert len(set(neighbours)) == n
        for y in neighbours:
            assert bin(x ^ y).count("1") == 1
