"""Position identifiers: hand-derived examples first, then property sweeps.

The examples in this file were worked out by hand from the generation
rules (midpoint digit, descend-on-tight-gap, padding triple for
0-width gaps) and frozen before the behavior was checked against the
implementation.
"""

from __future__ import annotations

import random

import pytest

from crdtcheck.positions import (
    BASE,
    generate_between,
    position_wire,
)

# -- frozen worked examples -------------------------------------------------


def test_first_position_is_the_midpoint_of_the_whole_range():
    # Open interval (virtual min, virtual max): digits 1..63 available,
    # midpoint (1 + 63) // 2 = 32.
    assert generate_between(None, None, 0, 1) == ((32, 0, 1),)


def test_wide_gap_stays_single_level():
    left = ((10, 0, 1),)
    right = ((40, 1, 2),)
    # digits 11..39 available, midpoint (11 + 39) // 2 = 25
    assert generate_between(left, right, 2, 3) == ((25, 2, 3),)


def test_adjacent_digits_descend_past_the_left_bound():
    left = ((5, 0, 1),)
    right = ((6, 0, 1),)
    # No digit strictly between 5 and 6: copy the left triple and pick
    # the midpoint of the full range one level down (right bound no
    # longer constrains once the copied triple differs from its triple).
    assert generate_between(left, right, 0, 2) == ((5, 0, 1), (32, 0, 2))


def test_equal_digit_different_stamp_descends_too():
    left = ((5, 0, 1),)
    right = ((5, 1, 1),)
    got = generate_between(left, right, 3, 7)
    assert got == ((5, 0, 1), (32, 3, 7))
    assert left < got < right


def test_gap_of_width_one_at_the_bottom_uses_a_padding_triple():
    # Between the virtual minimum and ((1, 0, 1),) only digit 0 fits,
    # and 0 may not terminate a position: pad with (0, r, c), then take
    # the midpoint of the now-unbounded level below.
    right = ((1, 0, 1),)
    got = generate_between(None, right, 2, 9)
    assert got == ((0, 2, 9), (32, 2, 9))
    assert got < right


def test_right_bound_with_padding_triple_is_entered_not_skipped():
    # The right bound starts with a padding triple (digit 0). The only
    # way to sort below it from the virtual minimum is to walk inside it.
    right = ((0, 2, 9), (32, 2, 9))
    got = generate_between(None, right, 1, 4)
    assert got == ((0, 2, 9), (16, 1, 4))
    assert got < right


def test_prefix_sorts_before_extension():
    assert ((5, 0, 1),) < ((5, 0, 1), (1, 0, 2))


def test_unordered_bounds_raise():
    with pytest.raises(ValueError):
        generate_between(((9, 0, 1),), ((3, 0, 1),), 0, 2)
    with pytest.raises(ValueError):
        generate_between(((9, 0, 1),), ((9, 0, 1),), 0, 2)


def test_wire_round_trip():
    pos = ((5, 0, 1), (32, 3, 7))
    assert position_wire(pos) == [[5, 0, 1], [32, 3, 7]]


# -- properties --------------------------------------------------------------


def test_final_digit_is_never_zero_under_adversarial_narrowing():
    # Repeatedly squeeze into the left edge of the range; this is the
    # path that exercises padding triples.
    right = None
    pos = generate_between(None, right, 0, 1)
    for c in range(2, 40):
        right = pos
        pos = generate_between(None, right, c % 3, c)
        assert pos < right
        assert pos[-1][0] != 0
        assert all(d < BASE for d, _, _ in pos)


def test_betweenness_on_random_gaps():
    rng = random.Random(0xC0FFEE)
    positions = [generate_between(None, None, 0, 1)]
    for c in range(2, 2000):
        i = rng.randrange(len(positions) + 1)
        left = positions[i - 1] if i > 0 else None
        right = positions[i] if i < len(positions) else None
        fresh = generate_between(left, right, rng.randrange(4), c)
        if left is not None:
            assert left < fresh
        if right is not None:
            assert fresh < right
        positions.insert(i, fresh)
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


def test_same_bounds_different_stamps_are_unique():
    left = ((10, 0, 1),)
    right = ((11, 0, 1),)
    seen = set()
    for replica in range(4):
        for counter in range(1, 30):
            pos = generate_between(left, right, replica, counter)
            assert left < pos < right
            assert pos not in seen
            seen.add(pos)


def test_depth_grows_slowly_under_sequential_append():
    # Appending after the rightmost position each time halves the
    # remaining headroom; depth should stay logarithmic-ish, not linear.
    pos = generate_between(None, None, 0, 1)
    for c in range(2, 200):
        pos = generate_between(pos, None, 0, c)
    assert len(pos) < 40
