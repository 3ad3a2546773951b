"""Dots and causal contexts: ordering, compaction, wire round-trips."""

from __future__ import annotations

import itertools

import pytest

from conftest import context_from_dots
from crdtcheck.dots import EMPTY_CONTEXT, CausalContext, Dot


def test_dot_ordering_is_counter_then_replica():
    assert Dot(counter=1, replica=2) < Dot(counter=2, replica=0)
    assert Dot(counter=3, replica=0) < Dot(counter=3, replica=1)
    assert sorted([Dot(2, 1), Dot(1, 9), Dot(2, 0)]) == [
        Dot(1, 9), Dot(2, 0), Dot(2, 1),
    ]


def test_dot_of_and_wire_round_trip():
    d = Dot.of(3, 7)  # replica 3, counter 7
    assert d.replica == 3 and d.counter == 7
    assert d.as_wire() == [3, 7]
    assert Dot.of(*d.as_wire()) == d


def test_empty_context_contains_nothing():
    assert not EMPTY_CONTEXT.contains(Dot.of(0, 1))
    assert list(EMPTY_CONTEXT.iter_dots()) == []


def test_add_contiguous_dots_stay_in_frontier():
    ctx = EMPTY_CONTEXT
    for c in (1, 2, 3):
        ctx = ctx.add(Dot.of(1, c))
    assert ctx.seen == {1: 3}
    assert ctx.extra == frozenset()
    assert ctx.contains(Dot.of(1, 2))
    assert not ctx.contains(Dot.of(1, 4))


def test_gap_goes_to_extra_then_compacts():
    ctx = EMPTY_CONTEXT.add(Dot.of(0, 2))  # counter 1 missing
    assert ctx.seen.get(0, 0) == 0
    assert Dot.of(0, 2) in ctx.extra
    assert ctx.contains(Dot.of(0, 2))
    assert not ctx.contains(Dot.of(0, 1))

    ctx = ctx.add(Dot.of(0, 1))  # fills the gap: both compact into seen
    assert ctx.seen == {0: 2}
    assert ctx.extra == frozenset()


def test_compaction_chains_through_multiple_extras():
    ctx = EMPTY_CONTEXT
    for c in (4, 3, 2):
        ctx = ctx.add(Dot.of(2, c))
    assert ctx.seen.get(2, 0) == 0
    assert len(ctx.extra) == 3
    ctx = ctx.add(Dot.of(2, 1))
    assert ctx.seen == {2: 4}
    assert ctx.extra == frozenset()


def test_from_dots_matches_incremental_adds():
    dots = [Dot.of(1, 3), Dot.of(1, 1), Dot.of(0, 1), Dot.of(1, 2)]
    incremental = EMPTY_CONTEXT
    for d in dots:
        incremental = incremental.add(d)
    assert context_from_dots(dots) == incremental
    assert incremental.seen == {0: 1, 1: 3}


def test_context_equality_ignores_construction_order():
    # Replica 0 has a run that closes in several orders plus a dot past a
    # gap; replica 1 never gets its counter 1, so both its dots stay extra.
    dots = [Dot.of(0, 1), Dot.of(0, 2), Dot.of(0, 3), Dot.of(0, 5),
            Dot.of(1, 2), Dot.of(1, 3)]
    expected = CausalContext({0: 3}, frozenset(
        [Dot.of(0, 5), Dot.of(1, 2), Dot.of(1, 3)]
    ))
    for order in itertools.permutations(dots):
        ctx = EMPTY_CONTEXT
        for d in order:
            ctx = ctx.add(d)
        assert ctx == expected, order
        assert hash(ctx) == hash(expected)


def test_iter_dots_yields_frontier_and_extras():
    ctx = context_from_dots([Dot.of(0, 1), Dot.of(0, 2), Dot.of(1, 3)])
    got = set(ctx.iter_dots())
    assert got == {Dot.of(0, 1), Dot.of(0, 2), Dot.of(1, 3)}


def test_wire_round_trip_with_extras():
    ctx = context_from_dots([Dot.of(0, 1), Dot.of(1, 2), Dot.of(2, 5)])
    wire = ctx.as_wire()
    assert wire["seen"] == {"0": 1}
    assert [1, 2] in wire["extra"] and [2, 5] in wire["extra"]


def test_wire_seen_keys_are_sorted_strings():
    ctx = context_from_dots(
        [Dot.of(10, 1), Dot.of(2, 1), Dot.of(0, 1)]
    )
    assert list(ctx.as_wire()["seen"].keys()) == ["0", "2", "10"]


def test_add_duplicate_dot_is_identity():
    ctx = context_from_dots([Dot.of(0, 1)])
    assert ctx.add(Dot.of(0, 1)) == ctx


@pytest.mark.parametrize("replica,counter", [(0, 1), (3, 9), (1, 100)])
def test_contains_after_single_add(replica, counter):
    ctx = EMPTY_CONTEXT.add(Dot.of(replica, counter))
    assert ctx.contains(Dot.of(replica, counter))
