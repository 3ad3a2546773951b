"""Replica semantics, worked out by hand before running anything.

The remove-win rule drives every interesting expectation below: a
record survives a remove only if the record's context snapshot already
contained the remove's dot, i.e. only causally-later records outlive a
removal.  Concurrent adds/updates lose.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import fields

import pytest

from crdtcheck import replica
from crdtcheck.dots import Dot
from crdtcheck.errors import DuplicateDelivery, UnknownElement
from crdtcheck.explorer import ExplorationConfig, _successors, initial_state, state_digest
from crdtcheck.operations import OperationRequest
from crdtcheck.replica import (
    BUG_ASSUME_CAUSAL,
    BUG_READD_ACCEPT,
    Existence,
    ListOps,
    ListView,
    Rec,
    RpqOps,
    RpqView,
    fresh_replica,
)
from conftest import context_from_dots


def req(kind, elem, arg=None, anchor=None):
    return OperationRequest(kind=kind, elem=elem, arg=arg, anchor=anchor)


# -- priority queue -----------------------------------------------------


def test_add_then_increase_accumulates():
    r0 = fresh_replica("rpq", 0)
    r0, _ = r0.issue(req("add", "e", 10))
    r0, _ = r0.issue(req("increase", "e", -3))
    assert r0.query() == ("e", 7)
    r0, _ = r0.issue(req("increase", "e", 4))
    assert r0.query() == ("e", 11)


def test_query_breaks_value_ties_by_smaller_id():
    r0 = fresh_replica("rpq", 0)
    r0, _ = r0.issue(req("add", "b", 10))
    r0, _ = r0.issue(req("add", "a", 10))
    assert r0.query() == ("a", 10)


def test_concurrent_remove_beats_add_and_increase():
    r0 = fresh_replica("rpq", 0)
    r1 = fresh_replica("rpq", 1)
    r0, add_msg = r0.issue(req("add", "e", 10))
    r1 = r1.deliver(add_msg)

    # concurrent: an increase at r0, a remove at r1
    r0, inc_msg = r0.issue(req("increase", "e", 4))
    r1, rem_msg = r1.issue(req("remove", "e"))
    r0 = r0.deliver(rem_msg)
    r1 = r1.deliver(inc_msg)

    assert r0.normalize() == r1.normalize()
    assert r0.query() is None
    assert r0.views()["e"].existence is Existence.ONCE_EXISTENT


def test_add_after_remove_revives_with_fresh_value():
    r0 = fresh_replica("rpq", 0)
    r0, _ = r0.issue(req("add", "e", 10))
    r0, _ = r0.issue(req("increase", "e", 4))
    r0, _ = r0.issue(req("remove", "e"))
    assert r0.query() is None
    r0, _ = r0.issue(req("add", "e", 20))
    # the old increase did not see the remove, so it stays dead
    assert r0.query() == ("e", 20)


def test_increase_after_seen_remove_survives_it():
    r0 = fresh_replica("rpq", 0)
    r0, _ = r0.issue(req("add", "e", 10))
    r0, _ = r0.issue(req("remove", "e"))
    r0, _ = r0.issue(req("add", "e", 20))
    r0, _ = r0.issue(req("increase", "e", 4))
    assert r0.query() == ("e", 24)


def test_rpq_requests_are_never_rejected():
    r0 = fresh_replica("rpq", 0)
    assert r0.request_error(req("increase", "ghost", 4)) is None
    assert r0.request_error(req("remove", "ghost")) is None
    # an increase on an element this replica never saw applies to nothing
    r0, msg = r0.issue(req("increase", "ghost", 4))
    assert msg.op.deps == frozenset()
    assert r0.query() is None


def test_increase_depends_on_the_winning_add():
    r0 = fresh_replica("rpq", 0)
    r0, add_msg = r0.issue(req("add", "e", 10))
    r0, inc_msg = r0.issue(req("increase", "e", 4))
    assert inc_msg.op.deps == frozenset([add_msg.op.dot])


# -- sync messages and causal metadata -----------------------------------


def test_snapshot_excludes_the_operations_own_dot():
    r0 = fresh_replica("rpq", 0)
    r0, m1 = r0.issue(req("add", "e", 10))
    assert not m1.ctx.contains(m1.op.dot)
    r0, m2 = r0.issue(req("remove", "e"))
    assert m2.ctx.contains(m1.op.dot)
    assert not m2.ctx.contains(m2.op.dot)


def test_dots_count_up_per_replica():
    r0 = fresh_replica("rpq", 0)
    r0, m1 = r0.issue(req("add", "e", 10))
    r0, m2 = r0.issue(req("add", "f", 20))
    assert m1.op.dot == Dot(1, 0)
    assert m2.op.dot == Dot(2, 0)


def test_duplicate_delivery_raises():
    r0 = fresh_replica("rpq", 0)
    r1 = fresh_replica("rpq", 1)
    r0, msg = r0.issue(req("add", "e", 10))
    r1 = r1.deliver(msg)
    with pytest.raises(DuplicateDelivery):
        r1.deliver(msg)


def test_duplicate_delivery_of_a_buffered_message_raises():
    r0 = fresh_replica("rpq", 0)
    r0, _add_msg = r0.issue(req("add", "e", 10))
    r0, rem_msg = r0.issue(req("remove", "e"))
    r1 = fresh_replica("rpq", 1).deliver(rem_msg)  # buffered: add missing
    assert rem_msg.op.dot in r1.pending
    with pytest.raises(DuplicateDelivery):
        r1.deliver(rem_msg)


def test_snapshot_includes_buffered_remote_dots():
    r0 = fresh_replica("rpq", 0)
    r0, add_msg = r0.issue(req("add", "e", 10))
    r0, rem_msg = r0.issue(req("remove", "e"))
    r1 = fresh_replica("rpq", 1).deliver(rem_msg)  # buffered: add missing
    r1, msg = r1.issue(req("add", "f", 20))
    assert msg.op.dot == Dot(1, 1)
    assert msg.ctx.contains(rem_msg.op.dot)
    assert not msg.ctx.contains(add_msg.op.dot)


def test_out_of_order_delivery_buffers_then_flushes():
    r0 = fresh_replica("rpq", 0)
    r0, add_msg = r0.issue(req("add", "e", 10))
    r0, rem_msg = r0.issue(req("remove", "e"))

    r1 = fresh_replica("rpq", 1)
    r1 = r1.deliver(rem_msg)  # depends on the add: buffered
    assert len(r1.pending) == 1
    assert r1.views() == {}
    r1 = r1.deliver(add_msg)  # unblocks the remove
    assert r1.pending == {}
    assert r1.normalize() == r0.normalize()


def test_delivery_order_does_not_change_the_outcome():
    r0 = fresh_replica("rpq", 0)
    msgs = []
    for kind, e, a in [("add", "e", 10), ("increase", "e", -3),
                       ("add", "f", 20), ("remove", "f", None)]:
        r0, m = r0.issue(req(kind, e, a))
        msgs.append(m)

    import itertools

    outcomes = set()
    keys = set()
    for order in itertools.permutations(msgs):
        r1 = fresh_replica("rpq", 1)
        for m in order:
            r1 = r1.deliver(m)
        outcomes.add(r1.normalize())
        keys.add(r1.canonical_key())
    assert len(outcomes) == 1
    assert len(keys) == 1
    assert outcomes.pop() == r0.normalize()


def test_normalize_bytes_are_pinned():
    r0 = fresh_replica("rpq", 0)
    r0, _ = r0.issue(req("add", "e", 10))
    assert r0.normalize() == (
        '{"ctx":{"extra":[],"seen":{"0":1}},'
        '"elements":{"e":{"add_dot":[0,1],"existence":"existent","value":10}},'
        '"type":"rpq"}'
    )


# -- replicated list ------------------------------------------------------


def test_insert_update_remove_readd_lifecycle():
    r0 = fresh_replica("list", 0)
    r0, _ = r0.issue(req("insert", "e1", 10))
    assert r0.query() == [("e1", 10)]

    r0, _ = r0.issue(req("update", "e1", 99))
    assert r0.query() == [("e1", 99)]

    r0, _ = r0.issue(req("remove", "e1"))
    assert r0.query() == []
    assert r0.views()["e1"].existence is Existence.ONCE_EXISTENT

    # revival does not resurrect the pre-remove update
    r0, _ = r0.issue(req("readd", "e1"))
    assert r0.query() == [("e1", 10)]


def test_insert_positions_follow_the_anchor():
    r0 = fresh_replica("list", 0)
    r0, _ = r0.issue(req("insert", "e1", 10))
    r0, _ = r0.issue(req("insert", "e2", 20, anchor="e1"))
    r0, _ = r0.issue(req("insert", "e3", 30, anchor="e1"))
    # e3 squeezes between e1 and e2
    assert r0.query() == [("e1", 10), ("e3", 30), ("e2", 20)]


def test_head_insert_goes_first():
    r0 = fresh_replica("list", 0)
    r0, _ = r0.issue(req("insert", "e1", 10))
    r0, _ = r0.issue(req("insert", "e2", 20))  # anchor None = head
    assert [e for e, _ in r0.query()] == ["e2", "e1"]


def test_position_survives_remove_and_readd():
    r0 = fresh_replica("list", 0)
    r0, _ = r0.issue(req("insert", "e1", 10))
    pos_before = r0.views()["e1"].pos
    r0, _ = r0.issue(req("remove", "e1"))
    r0, _ = r0.issue(req("readd", "e1"))
    assert r0.views()["e1"].pos == pos_before


def test_concurrent_updates_pick_the_larger_dot():
    r0 = fresh_replica("list", 0)
    r1 = fresh_replica("list", 1)
    r0, ins = r0.issue(req("insert", "e1", 10))
    r1 = r1.deliver(ins)

    r0, u0 = r0.issue(req("update", "e1", 50))  # dot (2, 0)
    r1, u1 = r1.issue(req("update", "e1", 60))  # dot (1, 1)
    r0 = r0.deliver(u1)
    r1 = r1.deliver(u0)

    assert r0.normalize() == r1.normalize()
    assert r0.query() == [("e1", 50)]


def test_concurrent_remove_beats_update():
    r0 = fresh_replica("list", 0)
    r1 = fresh_replica("list", 1)
    r0, ins = r0.issue(req("insert", "e1", 10))
    r1 = r1.deliver(ins)

    r0, upd = r0.issue(req("update", "e1", 50))
    r1, rem = r1.issue(req("remove", "e1"))
    r0 = r0.deliver(rem)
    r1 = r1.deliver(upd)

    assert r0.normalize() == r1.normalize()
    assert r0.query() == []


def test_concurrent_remove_beats_readd():
    r0 = fresh_replica("list", 0)
    r1 = fresh_replica("list", 1)
    r0, ins = r0.issue(req("insert", "e1", 10))
    r1 = r1.deliver(ins)
    r0, rem0 = r0.issue(req("remove", "e1"))
    r1 = r1.deliver(rem0)

    # now concurrently: r0 re-adds, r1 removes again
    r0, readd = r0.issue(req("readd", "e1"))
    r1, rem1 = r1.issue(req("remove", "e1"))
    r0 = r0.deliver(rem1)
    r1 = r1.deliver(readd)

    assert r0.normalize() == r1.normalize()
    # the re-add never saw the second remove, so the second remove kills it
    assert r0.query() == []


def test_list_request_validity():
    r0 = fresh_replica("list", 0)
    r0, _ = r0.issue(req("insert", "e1", 10))
    assert r0.request_error(req("insert", "e1", 20)) is not None  # id reuse
    assert r0.request_error(req("insert", "e2", 20, anchor="zz")) is not None
    assert r0.request_error(req("update", "zz", 1)) is not None
    assert r0.request_error(req("update", "e1", 1)) is None
    r0, _ = r0.issue(req("remove", "e1"))
    # removed anchors are not resolvable, but removed ids may be re-added
    assert r0.request_error(req("insert", "e2", 20, anchor="e1")) is not None
    assert r0.request_error(req("readd", "e1")) is None
    with pytest.raises(UnknownElement):
        r0.issue(req("insert", "e3", 30, anchor="e1"))


def test_update_on_removed_element_is_issuable_and_converges():
    # "seen locally" is the validity bar: updating a tombstoned element
    # is allowed, it just has no visible effect until a revival that the
    # update survives.
    r0 = fresh_replica("list", 0)
    r0, _ = r0.issue(req("insert", "e1", 10))
    r0, _ = r0.issue(req("remove", "e1"))
    r0, _ = r0.issue(req("update", "e1", 77))
    assert r0.query() == []
    r0, _ = r0.issue(req("readd", "e1"))
    # the update saw the remove, so it survives it and wins over the base
    assert r0.query() == [("e1", 77)]


# -- mishandling strategies and seeded defects ----------------------------


def test_causal_assuming_replica_drops_early_arrivals():
    r0 = fresh_replica("rpq", 0)
    r0, add_msg = r0.issue(req("add", "e", 10))
    r0, rem_msg = r0.issue(req("remove", "e"))

    sloppy = fresh_replica("rpq", 1, bug_flags=frozenset([BUG_ASSUME_CAUSAL]))
    sloppy = sloppy.deliver(rem_msg)  # deps unmet: effect silently lost
    assert sloppy.pending == {}
    sloppy = sloppy.deliver(add_msg)
    # the add applied, the remove never did: the element looks existent
    assert sloppy.query() == ("e", 10)
    assert r0.query() is None
    assert sloppy.normalize() != r0.normalize()


def test_readd_accepting_replica_fabricates_a_ghost():
    r0 = fresh_replica("list", 0)
    r0, ins_msg = r0.issue(req("insert", "e1", 10))
    r0, rem_msg = r0.issue(req("remove", "e1"))
    r0, readd_msg = r0.issue(req("readd", "e1"))

    buggy = fresh_replica("list", 1, bug_flags=frozenset([BUG_READD_ACCEPT]))
    buggy = buggy.deliver(readd_msg)  # insert still missing: fabricated
    ghost = buggy.views()["e1"]
    assert ghost.existence is Existence.EXISTENT
    assert ghost.attr == 0
    assert ghost.pos[-1][2] > 1_000_000  # fabricated stamp, not a real one

    buggy = buggy.deliver(ins_msg)  # too late: the ghost keeps its position
    buggy = buggy.deliver(rem_msg)
    assert buggy.normalize() != r0.normalize()


def test_strict_replica_buffers_the_same_scenario():
    r0 = fresh_replica("list", 0)
    r0, ins_msg = r0.issue(req("insert", "e1", 10))
    r0, rem_msg = r0.issue(req("remove", "e1"))
    r0, readd_msg = r0.issue(req("readd", "e1"))

    r1 = fresh_replica("list", 1)
    r1 = r1.deliver(readd_msg)
    assert r1.views() == {}  # buffered, nothing visible
    r1 = r1.deliver(rem_msg)
    r1 = r1.deliver(ins_msg)
    assert r1.normalize() == r0.normalize()


# -- views derived once per record set ------------------------------------


def random_history(data_type: str, seed: int, length: int, names=None):
    """The states of one replica after each of ``length`` random valid
    requests, reading ``views()`` after every one.  The priority queue
    picks its element from ``names``; the i-th list insert is named
    ``names[i % len(names)]`` followed by ``i``."""
    rng = random.Random(seed)
    rep = fresh_replica(data_type, 0)
    names = names or ("ab" if data_type == "rpq" else "e")
    for i in range(length):
        views = rep.views()
        if data_type == "rpq":
            kind = rng.choice(["add", "increase", "remove"])
            r = req(kind, rng.choice(names), None if kind == "remove" else rng.randrange(-9, 10))
        else:
            kind = rng.choice(["insert", "update", "remove", "readd"] if views else ["insert"])
            arg = rng.randrange(100) if kind in ("insert", "update") else None
            if kind == "insert":
                existent = [e for e, v in sorted(views.items())
                            if v.existence is Existence.EXISTENT]
                r = req("insert", f"{names[i % len(names)]}{i}", arg,
                        rng.choice([None, *existent]))
            else:
                r = req(kind, rng.choice(sorted(views)), arg)
        rep, _ = rep.issue(r)
        rep.views()
        yield rep


def test_list_view_runs_once_per_record_set(monkeypatch):
    calls = Counter()
    kept = []  # keeps each record set alive so no id is reused
    list_view = replica.list_view

    def counting(ops):
        calls[id(ops)] += 1
        kept.append(ops)
        return list_view(ops)

    monkeypatch.setattr(replica, "list_view", counting)
    states = list(random_history("list", seed=3, length=100))
    assert len(states[-1].elems) > 20
    assert max(calls.values()) == 1


@pytest.mark.parametrize("data_type, derive", [
    ("rpq", replica.rpq_view), ("list", replica.list_view),
])
def test_cached_view_is_not_carried_by_replace(data_type, derive):
    # updates, removes and re-adds replace record sets whose views were read
    kinds = Counter()
    for rep in random_history(data_type, seed=11, length=100):
        for ops in rep.elems.values():
            fresh = type(ops)(**{f.name: getattr(ops, f.name) for f in fields(ops) if f.init})
            assert ops.view() == derive(fresh)
            assert ops.view().wire() == derive(fresh).wire()
            kinds[ops.view().existence] += 1
    assert len(kinds) >= 2  # both live and removed elements were checked


def random_network_history(data_type: str, seed: int, steps: int, bug_flags=frozenset()):
    """Three replicas driven by ``steps`` random moves: a valid request at
    a random replica, or the delivery of a random in-flight message, so
    messages arrive out of order, get buffered and are flushed.  Yields
    ``(before, msg, after)`` for each delivery and ``(None, None, after)``
    for each issue.  Every state's digest and views are read as soon as
    it is reached, so a successor that carried over a cache would keep a
    stale one."""
    rng = random.Random(seed)
    reps = [fresh_replica(data_type, i, bug_flags) for i in range(3)]
    for rep in reps:
        rep.digest(), rep.views()
    inflight = []  # (destination, message)
    for i in range(steps):
        if inflight and rng.random() < 0.6:
            dest, msg = inflight.pop(rng.randrange(len(inflight)))
            before = reps[dest]
            reps[dest] = before.deliver(msg)
        else:
            dest, before, msg = rng.randrange(3), None, None
            rep = reps[dest]
            if data_type == "rpq":
                kind = rng.choice(["add", "increase", "remove"])
                r = req(kind, rng.choice("ab"), None if kind == "remove" else rng.randrange(9))
            else:
                kind = rng.choice(["insert", "insert", "update", "remove", "readd"])
                if kind == "insert":
                    r = req(kind, f"e{i}", rng.randrange(9),
                            rng.choice([None, *sorted(rep.existent())]))
                elif rep.elems:
                    r = req(kind, rng.choice(sorted(rep.elems)),
                            rng.randrange(9) if kind == "update" else None)
                else:
                    continue
            reps[dest], sent = rep.issue(r)
            inflight += [(d, sent) for d in range(3) if d != dest]
        reps[dest].digest(), reps[dest].views()
        yield before, msg, reps[dest]


def top_stamp(rep) -> int:
    """The highest last-triple counter among a list replica's positions."""
    return max((o.pos[-1][2] for o in rep.elems.values() if isinstance(o, ListOps)), default=0)


@pytest.mark.parametrize("data_type, flags, derive", [
    ("rpq", (), replica.rpq_view),
    ("list", (), replica.list_view),
    ("list", (BUG_READD_ACCEPT,), replica.list_view),
    ("rpq", (BUG_ASSUME_CAUSAL,), replica.rpq_view),
    ("list", (BUG_ASSUME_CAUSAL,), replica.list_view),
], ids=["rpq", "list", "list-bug1", "rpq-bug2", "list-bug2"])
def test_delivered_states_carry_no_cached_digest_or_view(data_type, flags, derive):
    # The deliver-side twin of the test above: applied, buffered,
    # flushed, dropped and fabricated successors are all checked against
    # fresh copies of themselves.
    seen = Counter()
    for seed in range(4):
        for before, msg, rep in random_network_history(data_type, seed, 150, frozenset(flags)):
            fresh = type(rep)(**{f.name: getattr(rep, f.name) for f in fields(rep) if f.init})
            assert rep.digest() == fresh.digest()
            for ops in rep.elems.values():
                copy = type(ops)(**{f.name: getattr(ops, f.name) for f in fields(ops) if f.init})
                assert ops.view() == derive(copy)
                assert ops.view().wire() == derive(copy).wire()
            if msg is None:
                continue
            seen["deliver"] += 1
            seen["buffered"] += msg.op.dot in rep.pending
            seen["flushed"] += len(rep.pending) < len(before.pending)
            seen["unmet"] += not all(before.applied.contains(d) for d in msg.op.deps)
            seen["fabricated"] += top_stamp(rep) > max(top_stamp(before), replica._BUG_NONCE_FLOOR)
    assert seen["unmet"] > 10
    if BUG_ASSUME_CAUSAL in flags:
        assert seen["buffered"] == seen["flushed"] == 0
    else:
        assert seen["buffered"] > 10 and seen["flushed"] > 10
    assert (seen["fabricated"] > 0) == (BUG_READD_ACCEPT in flags)


# Ids that JSON escapes (quote, backslash, control character) or writes
# as non-ASCII UTF-8.
ESCAPED_NAMES = ('a"b', "c\\d", "é", "\x00", "😀")


def one_shot_normalize(rep) -> str:
    """The whole document, built here from the fields of the views and
    the applied context and rendered by one ``json.dumps``: the
    reference the direct text of ``normalize`` must match character for
    character."""
    def dot(d):
        return None if d is None else [d.replica, d.counter]

    def element(v):
        if isinstance(v, RpqView):
            return {"add_dot": dot(v.add_dot), "existence": v.existence.value, "value": v.value}
        return {"add_dot": dot(v.add_dot),
                "attr": v.attr if v.existence is Existence.EXISTENT else None,
                "existence": v.existence.value, "pos": [list(t) for t in v.pos]}

    ctx = rep.applied
    doc = {
        "ctx": {"extra": [dot(d) for d in sorted(ctx.extra)],
                "seen": {str(r): c for r, c in ctx.seen.items()}},
        "elements": {e: element(v) for e, v in rep.views().items()},
        "type": rep.data_type,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def reachable_replicas(**kw) -> list:
    """One replica state per digest among every replica of every global
    state a configuration reaches."""
    cfg = ExplorationConfig(**kw)
    seen, stack, out = set(), [initial_state(cfg)], {}
    while stack:
        gs = stack.pop()
        for rep in gs[1:cfg.n + 1]:
            out.setdefault(rep.digest(), rep)
        for _, succ in _successors(cfg, gs):
            key = state_digest(succ)
            if key not in seen:
                seen.add(key)
                stack.append(succ)
    return list(out.values())


# An add of 1 decreased twice: negative values in every interleaving.
_NEGATIVE_RPQ = (
    (OperationRequest("add", "e", 1),),
    (OperationRequest("increase", "e", -3),),
    (OperationRequest("increase", "e", -3), OperationRequest("remove", "e")),
)


def features(rep) -> set:
    """What of the rendering's edge cases ``rep`` shows."""
    views = rep.views().values()
    out = set()
    if rep.applied.extra:
        out.add("extra")
    if any(getattr(v, "value", None) is not None and v.value < 0 for v in views):
        out.add("negative")
    if any(isinstance(v, ListView) and v.pos[-1][2] > replica._BUG_NONCE_FLOOR for v in views):
        out.add("fabricated")
    return out


@pytest.mark.parametrize("states, shows", [
    *(((t, names), shown) for t, shown in (("rpq", {"negative"}), ("list", set()))
      for names in (None, ESCAPED_NAMES)),
    *((dict(data_type=t, n=1, q=4), set()) for t in ("rpq", "list")),
    (dict(data_type="rpq", n=2, q=3), {"extra"}),
    (dict(data_type="rpq", n=2, q=3, pinned_ops=_NEGATIVE_RPQ), {"negative"}),
    (dict(data_type="list", n=2, q=3), {"extra"}),
    (dict(data_type="list", n=2, q=3, bug_flags=frozenset({BUG_READD_ACCEPT})),
     {"extra", "fabricated"}),
    (dict(data_type="list", n=3, q=3), set()),
], ids=["plain-rpq", "escaped-rpq", "plain-list", "escaped-list",
        "rpq-n1q4", "list-n1q4", "rpq-n2q3", "rpq-n2q3-negative", "list-n2q3",
        "list-n2q3-bug1", "list-n3q3"])
def test_normalize_matches_one_shot_rendering(states, shows):
    # Every state of small configurations, and random single-replica
    # histories with negative priorities and ids JSON escapes.
    if isinstance(states, dict):
        reps = reachable_replicas(**states)
    else:
        data_type, names = states
        reps = list(random_history(data_type, seed=5, length=120, names=names))
        if names:
            assert all(any(n in e for e in reps[-1].elems) for n in ESCAPED_NAMES)
    shown = set()
    for rep in reps:
        assert rep.normalize() == one_shot_normalize(rep)
        shown |= features(rep)
    assert shows <= shown


# -- remove-win survival by each origin's highest remove ----------------------


def all_removes_view(ops: RpqOps) -> RpqView:
    """``rpq_view`` with every record checked against every remove: the
    definition the per-origin test must agree with."""
    def survives(rec):
        return all(rec.ctx.contains(r.dot) for r in ops.rems)

    alive = [a for a in ops.adds if survives(a)]
    if alive:
        win = max(alive, key=lambda a: a.dot)
        return RpqView(Existence.EXISTENT,
                       win.val + sum(i.val for i in ops.incs if survives(i)), win.dot)
    if ops.adds:
        return RpqView(Existence.ONCE_EXISTENT, None, max(ops.adds, key=lambda a: a.dot).dot)
    return RpqView(Existence.NON_EXISTENT, None, None)


def random_rpq_ops(rng: random.Random) -> RpqOps:
    """Records with distinct dots from 3 origins, each with a context of
    random dots: most contexts have gaps, so dots sit in ``extra``."""
    grid = [Dot(c, r) for r in range(3) for c in range(1, 7)]
    dots = rng.sample(grid, rng.randrange(1, 12))
    density = rng.choice([0.3, 0.7, 0.95])

    def rec(dot, val):
        seen = [d for d in grid if d != dot and rng.random() < density]
        return Rec(dot, val, context_from_dots(seen))

    recs = [(rng.choice(["adds", "incs", "rems"]), d) for d in dots]
    return RpqOps(**{
        kind: tuple(rec(d, None if kind == "rems" else rng.randrange(-9, 10))
                    for k, d in recs if k == kind)
        for kind in ("adds", "incs", "rems")
    })


def highest_remove_case(ctx, rems) -> str:
    tops = {}
    for r in rems:
        tops[r.dot.replica] = max(tops.get(r.dot.replica, 0), r.dot.counter)
    cases = {"covered" if ctx.seen.get(o, 0) >= top
             else "in-extra" if Dot(top, o) in ctx.extra else "missing"
             for o, top in tops.items()}
    return "in-extra" if "in-extra" in cases else "missing" if "missing" in cases else "covered"


def test_survival_by_highest_remove_matches_all_removes():
    rng = random.Random(17)
    cases = Counter()
    for _ in range(1000):
        ops = random_rpq_ops(rng)
        survives = replica._survivor_test(ops.rems)
        for rec in ops.adds + ops.incs:
            assert survives(rec.ctx) == all(rec.ctx.contains(r.dot) for r in ops.rems)
            cases[highest_remove_case(rec.ctx, ops.rems), survives(rec.ctx)] += 1
        assert replica.rpq_view(ops) == all_removes_view(ops)
    for rep in random_history("rpq", seed=8, length=300, names="abc"):
        for ops in rep.elems.values():
            assert ops.view() == all_removes_view(ops)
    # every branch, and a highest remove in ``extra`` both with and
    # without a lower remove the context lacks
    assert {("covered", True), ("missing", False), ("in-extra", True),
            ("in-extra", False)} <= set(cases)


def all_removes_list_view(ops: ListOps) -> ListView:
    """``list_view`` with every record checked against every remove."""
    def survives(rec):
        return all(rec.ctx.contains(r.dot) for r in ops.rems)

    alive = survives(ops.ins) or any(survives(x) for x in ops.readds)
    _, attr = max([(ops.ins.dot, ops.ins.val)]
                  + [(u.dot, u.val) for u in ops.upds if survives(u)])
    existence = Existence.EXISTENT if alive else Existence.ONCE_EXISTENT
    return ListView(existence, attr, ops.pos, ops.ins.dot)


def random_list_ops(rng: random.Random) -> ListOps:
    """An insert plus updates, removes and re-adds with distinct dots
    from 3 origins, each with a context of random dots, as in
    ``random_rpq_ops``."""
    grid = [Dot(c, r) for r in range(3) for c in range(1, 7)]
    ins, *dots = rng.sample(grid, rng.randrange(1, 12))
    density = rng.choice([0.3, 0.7, 0.95])

    def rec(dot, val):
        seen = [d for d in grid if d != dot and rng.random() < density]
        return Rec(dot, val, context_from_dots(seen))

    recs = [(rng.choice(["upds", "rems", "readds"]), d) for d in dots]
    return ListOps(rec(ins, 10), ((32, ins.replica, ins.counter),), **{
        kind: tuple(rec(d, rng.randrange(0, 100) if kind == "upds" else None)
                    for k, d in recs if k == kind)
        for kind in ("upds", "rems", "readds")
    })


def test_list_survival_by_highest_remove_matches_all_removes():
    rng = random.Random(19)
    cases = Counter()
    for _ in range(1000):
        ops = random_list_ops(rng)
        view = replica.list_view(ops)
        assert view == all_removes_list_view(ops)
        for rec in (ops.ins, *ops.upds, *ops.readds):
            cases[highest_remove_case(rec.ctx, ops.rems)] += 1
        cases[view.existence] += 1
    for rep in random_history("list", seed=8, length=300, names="abc"):
        for ops in rep.elems.values():
            assert ops.view() == all_removes_list_view(ops)
    assert {"covered", "missing", "in-extra",
            Existence.EXISTENT, Existence.ONCE_EXISTENT} <= set(cases)
