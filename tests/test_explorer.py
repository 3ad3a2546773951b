"""State-space exploration: counting oracles, dedup soundness, defects.

Counting oracles used below, derived by hand before any run:

* Priority queue, one replica: the request pool is five fixed requests
  and every one of them is always valid, so the schedule tree is a
  complete 5-ary tree of depth q — 5**q terminal schedules and
  (5**(q+1) - 1) / 4 nodes in total.

* Priority queue, two replicas, two slots: after the first client event
  there are exactly three ways to interleave the second client event
  with the two deliveries (the reply cannot be delivered before it is
  issued): C1 D1 D0', C1 D0' D1, D1 C1 D0'.  Five request choices per
  client event gives 5 * 3 * 5 = 75 schedules.

* List, one replica, two slots: slot 0 offers insert e1 at the head
  with one of two attrs (2 choices); slot 1 then offers insert e2
  (head or anchored at e1, two attrs — 4), update e1 (2), remove e1
  (1), re-add e1 (1): 8 choices.  2 * 8 = 16 schedules.

* List, two replicas, two slots: same three interleavings as above.
  When the second client event fires before the delivery, replica 1
  offers only the two fresh inserts; after the delivery it offers all
  8.  2 * (2 + 2 + 8) = 24 schedules.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import threading
import time
import tracemalloc
from copy import copy as shallow_copy, deepcopy
from dataclasses import replace

import pytest

from conftest import enabled_events, schedule_has_causal_inversion
from crdtcheck.dots import EMPTY_CONTEXT, Dot
from crdtcheck.errors import BadConfig, BudgetExceeded, NotEnabled
from crdtcheck import explorer
from crdtcheck.explorer import (
    ClientEvent,
    DeliverEvent,
    ExplorationConfig,
    config_fingerprint,
    enumerate_traces,
    event_from_wire,
    event_wire,
    explore,
    initial_state,
    is_terminal,
    render,
    replay_schedule,
    state_digest,
    state_violations,
    step,
    _explore_bfs,
)
from crdtcheck.operations import OperationRequest, SyncMessage
from crdtcheck.replica import ReplicaState, fresh_replica


BUG1 = frozenset(["bug1-readd-accept"])
BUG2 = frozenset(["bug2-assume-causal"])


def cfg_of(**kw) -> ExplorationConfig:
    base = dict(data_type="rpq", n=1, q=2)
    base.update(kw)
    return ExplorationConfig(**base)


def walk_with_oracles(cfg: ExplorationConfig, **kw):
    """The depth-first walk's report and its terminal oracle counts,
    counted through ``emit`` (which keeps the walk in this process)."""
    counts: dict = {}

    def emit(_schedule, oracle):
        counts[oracle] = counts.get(oracle, 0) + 1

    return enumerate_traces(cfg, emit, **kw), counts


# -- configuration validation ---------------------------------------------


def test_bad_configs_are_rejected():
    with pytest.raises(BadConfig):
        cfg_of(q=0)
    with pytest.raises(BadConfig):
        cfg_of(n=3, q=2)  # fewer slots than replicas
    with pytest.raises(BadConfig):
        cfg_of(data_type="set")
    with pytest.raises(BadConfig):
        cfg_of(channel="fifo")
    with pytest.raises(BadConfig):
        cfg_of(bug_flags=frozenset(["bug2-optimistic"]))
    with pytest.raises(BadConfig):
        cfg_of(state_cap=0)


@pytest.mark.parametrize("field,value", [
    ("n", True), ("n", 2.0), ("q", 2.5), ("q", "3"), ("q", False),
    ("state_cap", True), ("state_cap", 10.0),
])
def test_config_counts_must_be_exact_integers(field, value):
    with pytest.raises(BadConfig, match=f"{field} must be an integer"):
        cfg_of(**{field: value})


def test_server_only_defects_cannot_run_in_the_model():
    with pytest.raises(BadConfig):
        cfg_of(data_type="list", bug_flags=frozenset(["bug4-dummy-position"]))
    # the two model-level defects are accepted
    cfg_of(data_type="list", bug_flags=frozenset(["bug1-readd-accept"]))
    cfg_of(bug_flags=frozenset(["bug2-assume-causal"]))


def test_fingerprint_tracks_semantics_not_budgets():
    a = config_fingerprint(cfg_of())
    assert a == config_fingerprint(cfg_of(state_cap=10_000))
    assert a != config_fingerprint(cfg_of(q=3))
    assert a != config_fingerprint(cfg_of(channel="causal"))
    assert a != config_fingerprint(
        cfg_of(bug_flags=frozenset(["bug2-assume-causal"]))
    )


def test_fingerprint_is_stable():
    # Every corpus embeds these; a change here orphans existing corpora.
    assert config_fingerprint(ExplorationConfig("list", 2, 3)) == (
        "3e2b799069a1aa4f55a7149fcdbc46c1216ff0ea073807fda02de9eb8c58a52b"
    )
    assert config_fingerprint(ExplorationConfig("rpq", 2, 3, bug_flags=BUG2)) == (
        "7fe6975648be5e75c7748feb0d801e5b6b89c6ec38a327f0a46ee0a6820839f2"
    )


# -- counting against the closed forms -------------------------------------


@pytest.mark.parametrize("q,traces", [(1, 5), (2, 25), (3, 125)])
def test_single_replica_rpq_matches_the_5ary_tree(q, traces):
    report = explore(cfg_of(q=q))
    assert report.terminal_traces == traces
    assert report.distinct_states == (5 ** (q + 1) - 1) // 4
    assert report.states_visited == report.distinct_states
    assert report.exhaustive
    assert report.violations == ()


def test_two_replica_rpq_q2_has_75_schedules():
    report = explore(cfg_of(n=2, q=2))
    assert report.terminal_traces == 75
    assert report.violations == ()


def test_single_replica_list_q2_has_16_schedules():
    report = explore(cfg_of(data_type="list", q=2))
    assert report.terminal_traces == 16
    assert report.violations == ()


def test_two_replica_list_q2_has_24_schedules():
    report = explore(cfg_of(data_type="list", n=2, q=2))
    assert report.terminal_traces == 24
    assert report.violations == ()


# -- deduplicating search vs. raw tree walk --------------------------------


# Three replicas, a few candidates per slot: small enough for the
# non-deduplicating walk.  Slot 2's re-add, issued at replica 2, can
# reach replica 1 before the insert does; bug1 then fabricates the
# element there, at a position whose stamp the canonical key holds.
PINNED_RPQ_N3 = (
    (OperationRequest("add", "e", 10), OperationRequest("add", "e", 20)),
    (OperationRequest("remove", "e"),),
    (OperationRequest("increase", "e", 4),),
)
PINNED_LIST_N3 = (
    (OperationRequest("insert", "e1", 10),),
    (OperationRequest("insert", "e2", 20), OperationRequest("remove", "e1")),
    (OperationRequest("readd", "e1"), OperationRequest("insert", "e3", 10)),
)


def assert_walks_agree(cfg: ExplorationConfig):
    """Both walks find the same terminal schedules and oracles, and the
    same violating states with the same shortest counterexample per
    invariant; returns the breadth-first report.  The depth-first walk
    issues and delivers with ReplicaState directly; the breadth-first
    search goes through its id store and move memos."""
    brute, oracles = walk_with_oracles(cfg, check=True)
    deduped = _explore_bfs(cfg, collect_oracles=True)
    assert deduped.terminal_traces == brute.terminal_traces
    assert deduped.oracle_multiset == oracles
    assert deduped.distinct_states <= brute.states_visited

    def violated(report) -> set:
        return {
            (v.invariant, state_digest(replay_schedule(cfg, v.schedule)))
            for v in report.violations
        }

    def shortest(report) -> dict:
        out = {}
        for v in report.violations:
            out[v.invariant] = min(out.get(v.invariant, len(v.schedule)), len(v.schedule))
        return out

    assert not brute.violations_capped and not deduped.violations_capped
    assert violated(deduped) == violated(brute)
    assert shortest(deduped) == shortest(brute)
    return deduped


WALK_CONFIGS = [
    dict(),
    dict(q=3),
    dict(n=2, q=2),
    dict(n=2, q=3),
    dict(data_type="list", q=3),
    dict(data_type="list", n=2, q=2),
    dict(data_type="list", n=2, q=3),
    dict(data_type="list", n=2, q=3, bug_flags=BUG1),
    dict(n=2, q=3, bug_flags=BUG2),
    dict(data_type="list", n=2, q=3, bug_flags=BUG2),
    dict(data_type="list", n=2, q=3, channel="causal"),
    dict(n=2, q=3, channel="causal", bug_flags=BUG2),
    dict(n=3, q=3, pinned_ops=PINNED_RPQ_N3),
    dict(n=3, q=3, pinned_ops=PINNED_RPQ_N3, bug_flags=BUG2),
    dict(data_type="list", n=3, q=3, pinned_ops=PINNED_LIST_N3),
    dict(data_type="list", n=3, q=3, pinned_ops=PINNED_LIST_N3, bug_flags=BUG1),
    dict(data_type="list", n=3, q=3, pinned_ops=PINNED_LIST_N3, channel="causal"),
    dict(n=3, q=3, pinned_ops=PINNED_RPQ_N3, channel="causal", bug_flags=BUG2),
]


@pytest.mark.parametrize("kw", WALK_CONFIGS)
def test_dedup_never_loses_or_invents_traces(kw):
    deduped = assert_walks_agree(cfg_of(**kw))
    # every flag breaks something, except bug2 on a causal channel
    broken = bool(kw.get("bug_flags")) and kw.get("channel") != "causal"
    assert bool(deduped.violations) == broken


def test_stored_states_keep_each_replica_at_its_index(monkeypatch):
    # canonical_key omits the replica index, so fresh replicas 0 and 1
    # digest the same; the store must still never swap them.
    assert fresh_replica("rpq", 0).digest() == fresh_replica("rpq", 1).digest()
    expanded = []
    successors = explorer._successors

    def recording(cfg, ids, store=None):
        expanded.append((store, ids))
        return successors(cfg, ids, store)

    monkeypatch.setattr(explorer, "_successors", recording)
    report = explore(cfg_of(n=2, q=2))
    assert report.terminal_traces == 75
    assert len(expanded) > 1
    store = expanded[0][0]
    assert all(other is store for other, _ in expanded)
    # a state is (slot, replica 0 id, replica 1 id, channel 0 id, channel 1 id)
    for _, ids in expanded:
        assert len(ids) == 5
        assert [store.replicas[h].replica for h in ids[1:3]] == [0, 1]
    # equal (index, digest) pairs share one handle
    handles = {h for _, ids in expanded for h in ids[1:3]}
    pairs = {(store.replicas[h].replica, store.replicas[h].digest()) for h in handles}
    assert len(handles) == len(pairs)


def test_each_distinct_state_and_move_is_computed_once(monkeypatch):
    # rpq n=3 q=3: 27,621 distinct states of which 1,000 are terminal,
    # reached over 71,726 transitions.  The store expands each
    # non-terminal state once and issues each request once per distinct
    # (replica state, slot).  It resolves ids to components only for
    # the root and the terminal or violating states, and digests only the
    # root and the violating states: none without flags, 204 with bug2.
    calls = {}
    stores = []

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    class Recording(explorer._IdStore):
        def __init__(self, cfg):
            super().__init__(cfg)
            stores.append(self)

    counting(explorer, "state_digest")
    counting(explorer, "_successors")
    counting(ReplicaState, "issue")
    counting(explorer._IdStore, "resolve")
    monkeypatch.setattr(explorer, "_IdStore", Recording)

    calls.update(state_digest=0, _successors=0, issue=0, resolve=0)
    report = explore(cfg_of(n=3, q=3))
    assert (report.distinct_states, report.states_visited) == (27_621, 71_726)
    assert calls == {"state_digest": 1, "resolve": 1_001, "_successors": 26_621, "issue": 380}
    # the store interns the root's empty channel first
    assert stores[0].channels[0] == frozenset()

    calls.update(state_digest=0, _successors=0, issue=0, resolve=0)
    report = explore(cfg_of(n=3, q=3, bug_flags=BUG2))
    assert (report.distinct_states, len(report.violations)) == (28_917, 100)
    assert calls == {"state_digest": 205, "resolve": 1_217, "_successors": 27_701, "issue": 380}


def test_breadth_first_search_memory_stays_bounded():
    # rpq n=3 q=3 traced 13.45 MB at its peak while a digest-keyed map
    # held the predecessor of every distinct state and every stored
    # replica its own applied context; parent links and shared contexts
    # bring it to about 7.4 MB.
    tracemalloc.start()
    try:
        report = explore(cfg_of(n=3, q=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.distinct_states == 27_621
    assert peak < 10_000_000, f"traced peak {peak / 1e6:.2f} MB"


def test_stored_replicas_share_one_applied_context_per_value(monkeypatch):
    stores = []

    class Recording(explorer._IdStore):
        def __init__(self, cfg):
            super().__init__(cfg)
            stores.append(self)

    monkeypatch.setattr(explorer, "_IdStore", Recording)
    report = explore(cfg_of(data_type="list", n=2, q=3))
    assert report.terminal_traces == 908
    [store] = stores
    contexts = [rep.applied for rep in store.replicas]
    values = {ctx.canonical() for ctx in contexts}
    assert len({id(ctx) for ctx in contexts}) == len(values) < len(contexts)


def test_cached_digest_is_not_copied_by_replace():
    rep = fresh_replica("list", 0)
    assert replace(rep, applied=rep.applied.add(Dot(1, 1))).digest() != rep.digest()
    after, msg = rep.issue(OperationRequest("insert", "e1", 10))
    assert after.digest() != rep.digest()
    assert replace(msg, origin=1).digest() != msg.digest()


def count_normalize(monkeypatch) -> list:
    """The replicas ``normalize`` is called on from here on."""
    calls = []
    normalize = ReplicaState.normalize

    def counting(self):
        calls.append(self)
        return normalize(self)

    monkeypatch.setattr(ReplicaState, "normalize", counting)
    return calls


def test_terminal_states_are_rendered_once(monkeypatch):
    # The invariant check and the oracle multiset share one rendering of
    # each terminal state, and the breadth-first search normalizes one
    # replica per distinct digest in it: its 388 terminal states all
    # converged.  The depth-first walk and its emitted records render
    # every replica of every terminal schedule; ``emit`` keeps it in this
    # process, where the calls are counted.
    calls = count_normalize(monkeypatch)
    cfg = cfg_of(data_type="list", n=2, q=3)
    _explore_bfs(cfg, collect_oracles=False)
    assert len(calls) == 388
    calls.clear()
    _explore_bfs(cfg, collect_oracles=True)
    assert len(calls) == 388
    calls.clear()
    report, _ = walk_with_oracles(cfg, check=True)
    assert report.terminal_traces == 908
    assert len(calls) == 2 * 908


@pytest.mark.parametrize("kw,normalized,violations", [
    (dict(data_type="list", n=2, q=3, bug_flags=BUG1), 404, 8),
    (dict(n=3, q=3, bug_flags=BUG2), 1_462, 100),
], ids=["list-n2q3-bug1", "rpq-n3q3-bug2"])
def test_diverged_terminal_replicas_are_rendered_apart(monkeypatch, kw, normalized, violations):
    # a terminal state whose replicas digest apart normalizes each digest
    calls = count_normalize(monkeypatch)
    for collect_oracles in (False, True):
        calls.clear()
        report = _explore_bfs(cfg_of(**kw), collect_oracles=collect_oracles)
        assert (len(calls), len(report.violations)) == (normalized, violations)


def test_tree_mode_and_bfs_agree_on_single_replica():
    cfg = cfg_of(q=3)
    tree = explore(cfg)
    _, oracles = walk_with_oracles(cfg, check=True)
    bfs = _explore_bfs(cfg, collect_oracles=True)
    assert tree.terminal_traces == bfs.terminal_traces
    assert oracles == bfs.oracle_multiset


def test_exploration_is_deterministic():
    cfg = cfg_of(data_type="list", n=2, q=2)
    a = _explore_bfs(cfg, collect_oracles=True)
    b = _explore_bfs(cfg, collect_oracles=True)
    assert a.as_json()["violations"] == b.as_json()["violations"]
    assert (a.terminal_traces, a.distinct_states, a.oracle_multiset) == (
        b.terminal_traces, b.distinct_states, b.oracle_multiset
    )

    seen_a: list = []
    seen_b: list = []
    enumerate_traces(cfg, lambda schedule, _oracle: seen_a.append(schedule))
    enumerate_traces(cfg, lambda schedule, _oracle: seen_b.append(schedule))
    assert seen_a == seen_b


# -- events and stepping ----------------------------------------------------


def test_initial_events_are_slot_zero_requests_only():
    cfg = cfg_of(n=2, q=2)
    evs = enabled_events(cfg, initial_state(cfg))
    assert all(isinstance(ev, ClientEvent) for ev in evs)
    assert {ev.slot for ev in evs} == {0}
    assert {ev.target for ev in evs} == {0}
    assert len(evs) == 5


def test_slots_round_robin_over_replicas():
    cfg = cfg_of(n=2, q=2)
    gs = initial_state(cfg)
    gs = step(cfg, gs, enabled_events(cfg, gs)[0])
    client_evs = [ev for ev in enabled_events(cfg, gs) if isinstance(ev, ClientEvent)]
    assert {ev.target for ev in client_evs} == {1}


def test_client_event_fans_out_to_all_peers():
    cfg = cfg_of(n=3, q=3)
    gs = initial_state(cfg)
    channels = step(cfg, gs, enabled_events(cfg, gs)[0])[4:]
    assert len(channels[0]) == 0  # origin keeps nothing in flight
    assert len(channels[1]) == 1
    assert len(channels[2]) == 1


def test_step_rejects_events_that_are_not_enabled():
    cfg = cfg_of(n=2, q=2)
    gs = initial_state(cfg)
    with pytest.raises(NotEnabled):
        step(cfg, gs, DeliverEvent(dest=1, origin=0, counter=1))
    with pytest.raises(NotEnabled):
        # valid request, wrong slot target
        step(cfg, gs, ClientEvent(0, 1, OperationRequest("add", "e", 10)))


def test_causal_channel_blocks_early_deliveries():
    # Schedule: add at replica 0, anything at replica 1, then a remove
    # at replica 0 that causally follows its own add.  The remove's sync
    # message must stay blocked for replica 1 until the add arrives.
    causal = cfg_of(n=2, q=3, channel="causal")
    arbitrary = cfg_of(n=2, q=3)

    def issue(cfg, gs, kind, arg=None):
        ev = next(
            e for e in enabled_events(cfg, gs)
            if isinstance(e, ClientEvent) and e.req.kind == kind
            and (arg is None or e.req.arg == arg)
        )
        return step(cfg, gs, ev), ev

    gs = initial_state(causal)
    gs, ev_a = issue(causal, gs, "add", 10)
    gs, ev_b = issue(causal, gs, "add", 10)  # slot 1, replica 1
    gs, ev_c = issue(causal, gs, "remove")   # slot 2, depends on the add

    blocked = DeliverEvent(dest=1, origin=0, counter=2)
    assert event_wire(blocked) not in [
        event_wire(e) for e in enabled_events(causal, gs)
    ]
    # the same prefix under an arbitrary channel enables it
    gs_arb = replay_schedule(arbitrary, [ev_a, ev_b, ev_c])
    assert event_wire(blocked) in [
        event_wire(e) for e in enabled_events(arbitrary, gs_arb)
    ]
    # delivering the add unblocks the remove
    gs = step(causal, gs, DeliverEvent(dest=1, origin=0, counter=1))
    assert event_wire(blocked) in [
        event_wire(e) for e in enabled_events(causal, gs)
    ]


def test_causal_channel_never_reorders_same_origin_messages():
    cfg = cfg_of(n=2, q=2, channel="causal")

    def walk(gs, trail):
        for ev in enabled_events(cfg, gs):
            if isinstance(ev, DeliverEvent):
                assert not schedule_has_causal_inversion(cfg, trail + [ev])
            walk(step(cfg, gs, ev), trail + [ev])

    walk(initial_state(cfg), [])


def one_edits(schedule: tuple):
    """The schedule itself, each of it with one adjacent pair swapped,
    and each of it with one event dropped."""
    yield schedule
    for i in range(len(schedule) - 1):
        yield schedule[:i] + (schedule[i + 1], schedule[i]) + schedule[i + 2:]
    for i in range(len(schedule)):
        yield schedule[:i] + schedule[i + 1:]


def model_refusal(cfg: ExplorationConfig, schedule):
    """(the first event ``step`` refuses, the state it is refused in);
    (None, the end state) if the run ends terminal; ("incomplete", the
    end state) if it ends anywhere else."""
    gs = initial_state(cfg)
    for ev in schedule:
        try:
            gs = step(cfg, gs, ev)
        except NotEnabled:
            return ev, gs
    return (None if is_terminal(cfg, gs) else "incomplete"), gs


# One request per slot of n=2 q=3.  The list's remove of e2 at replica 0
# is valid only once e2 has reached it, and its message then needs e1's
# before it on a causal channel.
RUN_RULE_PINS = {
    "rpq": ((OperationRequest("add", "e", 10),), (OperationRequest("increase", "e", 4),),
            (OperationRequest("remove", "e"),)),
    "list": ((OperationRequest("insert", "e1", 10),), (OperationRequest("insert", "e2", 10),),
             (OperationRequest("remove", "e2"),)),
}


@pytest.mark.parametrize("channel", ["arbitrary", "causal"])
@pytest.mark.parametrize("data_type, pinned, every, edits, request_only", [
    ("rpq", True, 1, (180, 132), (0, 0)),
    ("list", True, 1, (60, 48), (0, 0)),
    # every 10th schedule of the standard space keeps this near a second
    ("rpq", False, 10, (2256, 1656), (0, 0)),
])
def test_run_error_agrees_with_the_enabled_events(
    channel, data_type, pinned, every, edits, request_only
):
    # run_error states the run rule without the model; _successors is the
    # one definition of a run, so the two must agree on every near-run
    cfg = cfg_of(data_type=data_type, n=2, q=3, channel=channel,
                 pinned_ops=RUN_RULE_PINS[data_type] if pinned else None)
    schedules = []
    enumerate_traces(cfg, lambda schedule, _oracle: schedules.append(schedule))
    seen = passed_only = 0
    for schedule in schedules[::every]:
        for edited in one_edits(schedule):
            seen += 1
            why = explorer.run_error(cfg, edited)
            refused, gs = model_refusal(cfg, edited)
            if data_type == "rpq" or refused is None or why is not None:
                assert (why is None) == (refused is None), (edited, why, refused)
            else:
                # every request is valid at every rpq replica; whether a
                # list anchor a replica holds still exists is left to the
                # servers
                assert isinstance(refused, ClientEvent), (edited, refused)
                assert gs[1 + refused.target].request_error(refused.req) is not None
                passed_only += 1
    # (arbitrary, causal) counts; edits = schedules taken x (1 + 5 + 6)
    pick = channel == "causal"
    assert (seen, passed_only) == (edits[pick], request_only[pick])


def test_run_error_holds_an_early_readd_only_where_bug1_keeps_it():
    # Replica 1 re-adds e1 and replica 2 inserts an e1 of its own.  Under
    # bug1 a re-add that reaches replica 2 first creates e1 there, so no
    # run inserts e1 at replica 2 after it.  With bug2 as well, the re-add
    # is discarded first, and the insert may follow it.
    pins = ((OperationRequest("insert", "e1", 10),), (OperationRequest("readd", "e1"),),
            (OperationRequest("insert", "e1", 20),))

    def runs(flags):
        cfg = cfg_of(data_type="list", n=3, q=3, pinned_ops=pins, bug_flags=flags)
        schedules = []
        enumerate_traces(cfg, lambda schedule, _oracle: schedules.append(schedule))
        return cfg, schedules

    (both, every), (bug1, kept) = runs(BUG1 | BUG2), runs(BUG1)
    assert (len(every), len(kept)) == (180, 144)
    assert all(explorer.run_error(both, s) is None for s in every)
    assert {s for s in every if explorer.run_error(bug1, s) is None} == set(kept)


def test_event_wire_round_trip():
    c = ClientEvent(0, 1, OperationRequest("insert", "e1", 10, anchor=None))
    d = DeliverEvent(dest=1, origin=0, counter=3)
    assert event_from_wire(event_wire(c)) == c
    assert event_from_wire(event_wire(d)) == d


def test_terminal_means_all_slots_used_and_channels_empty():
    cfg = cfg_of(q=1)
    gs = initial_state(cfg)
    assert not is_terminal(cfg, gs)
    gs = step(cfg, gs, enabled_events(cfg, gs)[0])
    assert is_terminal(cfg, gs)  # one replica: no messages at all


def test_state_digest_ignores_object_sharing():
    # Replicas 1 and 2 receive the same broadcast, and channels 1 and 2
    # hold it: once as one shared object, once as an equal copy built
    # from deep-copied parts, whose digest is computed afresh.
    cfg = cfg_of(n=3, q=3)
    gs = step(cfg, initial_state(cfg), enabled_events(cfg, initial_state(cfg))[0])
    slot, r0, r1, r2 = gs[:4]
    msg = next(iter(gs[5]))
    copy = SyncMessage(msg.origin, deepcopy(msg.op), deepcopy(msg.ctx))
    assert copy == msg and copy is not msg

    def delivered_to_both(second: SyncMessage) -> tuple:
        return (slot, r0, r1.deliver(msg), r2.deliver(second), *(frozenset(),) * 3)

    def in_flight_to_both(second: SyncMessage) -> tuple:
        return (slot, r0, r1, r2, frozenset(), frozenset([msg]), frozenset([second]))

    for build in (delivered_to_both, in_flight_to_both):
        shared, copied = build(msg), build(copy)
        assert state_digest(shared) == state_digest(copied)
    assert state_digest(in_flight_to_both(msg)) != state_digest(delivered_to_both(msg))


@pytest.mark.parametrize("data_type", ["rpq", "list"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_global_states_copy_and_pickle_like_tuples(data_type, n):
    # the root, every state one event away, and each state along the
    # path that always takes the last enabled event, down to a terminal
    cfg = cfg_of(data_type=data_type, n=n, q=max(n, 2))
    root = initial_state(cfg)
    states = [root, *(succ for _, succ in explorer._successors(cfg, root))]
    gs = root
    while succs := explorer._successors(cfg, gs):
        gs = succs[-1][1]
        states.append(gs)
    assert is_terminal(cfg, gs)
    copiers = (shallow_copy, deepcopy, lambda g: pickle.loads(pickle.dumps(g)))
    # every copy is taken before state_digest runs on the originals
    copies = [[copier(gs) for gs in states] for copier in copiers]
    for copied in copies:
        for gs, twin in zip(states, copied):
            assert type(twin) is tuple
            assert twin == gs
            assert state_digest(twin) == state_digest(gs)
            assert render(twin) == render(gs)


# -- invariant machinery -----------------------------------------------------


def test_position_collision_is_reported():
    cfg = cfg_of(data_type="list", n=1, q=1)
    rep = fresh_replica("list", 0)
    rep, _ = rep.issue(OperationRequest("insert", "e1", 10))
    rep, _ = rep.issue(OperationRequest("insert", "e2", 20))
    forged = dict(rep.elems)
    # same position as e1
    forged["e2"] = replace(rep.elems["e2"], pos=rep.elems["e1"].pos)

    bad_state = (1, replace(rep, elems=forged), *initial_state(cfg)[2:])
    names = [name for name, _ in state_violations(cfg, bad_state)]
    assert names == ["position-unique"]


def test_out_of_range_digit_is_reported():
    cfg = cfg_of(data_type="list", n=1, q=1)
    rep = fresh_replica("list", 0)
    rep, _ = rep.issue(OperationRequest("insert", "e1", 10))
    forged = dict(rep.elems)
    forged["e1"] = replace(rep.elems["e1"], pos=((64, 0, 1),))

    bad_state = (1, replace(rep, elems=forged), *initial_state(cfg)[2:])
    names = [name for name, _ in state_violations(cfg, bad_state)]
    assert names == ["position-range"]


def flag_list_states(real):
    """A test-only ``replica_violations`` that also flags replica 1 once
    it shows two elements, and replica 0 once it holds two elements one
    of which shows attr 20."""

    def flagged(cfg, index, rep):
        out = real(cfg, index, rep)
        shown = rep.existent().values()
        if index == 1 and len(shown) >= 2:
            out.append(("position-unique", f"flagged at replica {index}"))
        if index == 0 and len(rep.elems) >= 2 and any(v.attr == 20 for v in shown):
            out.append(("position-range", f"flagged at replica {index}"))
        return out

    return flagged


@pytest.mark.parametrize("kw", [
    dict(data_type="list", n=2, q=2),
    dict(data_type="list", n=3, q=3, pinned_ops=PINNED_LIST_N3),
])
def test_walks_agree_on_flagged_states(monkeypatch, kw):
    # a flagged state that is not terminal prunes its subtree in both walks
    cfg = cfg_of(**kw)
    full = explore(cfg).terminal_traces
    monkeypatch.setattr(explorer, "replica_violations",
                        flag_list_states(explorer.replica_violations))
    report = assert_walks_agree(cfg)
    assert {v.invariant for v in report.violations} == {"position-unique", "position-range"}
    assert 0 < report.terminal_traces < full


def test_walks_agree_on_a_broken_root(monkeypatch):
    monkeypatch.setattr(explorer, "replica_violations",
                        lambda cfg, index, rep: [("position-range", f"replica {index}")])
    cfg = cfg_of(data_type="list", n=2, q=2)
    for report in (explore(cfg), enumerate_traces(cfg, check=True)):
        assert (report.distinct_states, report.terminal_traces) == (1, 0)
        assert [(v.invariant, v.schedule) for v in report.violations] == [
            ("position-range", ())
        ]


@pytest.mark.parametrize("kw", [
    dict(n=2, q=3),
    dict(data_type="list", n=2, q=3),
])
def test_walks_agree_when_the_buffer_never_drains(monkeypatch, kw):
    # A test-only replica whose buffer never releases an op: an op that
    # arrives before its dependency stays buffered at the end.
    monkeypatch.setattr(ReplicaState, "_flush", lambda self: self)
    report = assert_walks_agree(cfg_of(**kw))
    assert {v.invariant for v in report.violations} == {"buffer-liveness", "convergence"}


# -- defect hunting -----------------------------------------------------------


def test_causal_assumption_breaks_under_arbitrary_delivery():
    cfg = cfg_of(n=2, q=3, bug_flags=BUG2)
    report = explore(cfg)
    assert report.violations
    assert {v.invariant for v in report.violations} == {"convergence"}
    shortest = min(len(v.schedule) for v in report.violations)
    # C0 C1 C2, both messages to replica 1 (dependent one first), reply
    # to replica 0: six events, none removable
    assert shortest == 6
    best = min(report.violations, key=lambda v: len(v.schedule))
    assert schedule_has_causal_inversion(cfg, best.schedule)


def test_causal_assumption_is_safe_on_a_causal_channel():
    sloppy = _explore_bfs(
        cfg_of(n=2, q=3, bug_flags=BUG2, channel="causal"), collect_oracles=True
    )
    strict = _explore_bfs(cfg_of(n=2, q=3, channel="causal"), collect_oracles=True)
    assert sloppy.exhaustive and strict.exhaustive
    assert sloppy.violations == ()
    assert sloppy.terminal_traces == strict.terminal_traces
    assert sloppy.oracle_multiset == strict.oracle_multiset


def test_readd_acceptance_defect_found_and_shortest_is_six_events():
    cfg = cfg_of(
        data_type="list", n=2, q=3,
        bug_flags=frozenset(["bug1-readd-accept"]),
    )
    report = explore(cfg)
    assert report.violations
    assert "convergence" in {v.invariant for v in report.violations}
    assert min(len(v.schedule) for v in report.violations) == 6


def test_violating_counterexamples_replay_to_the_violation():
    cfg = cfg_of(n=2, q=3, bug_flags=BUG2)
    report = explore(cfg)
    v = min(report.violations, key=lambda x: len(x.schedule))
    gs = replay_schedule(cfg, v.schedule)
    assert is_terminal(cfg, gs)
    assert gs[1].normalize() != gs[2].normalize()


# -- report bytes -------------------------------------------------------------


def report_digest(report) -> str:
    doc = report.as_json()
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "kw,digest",
    [
        (dict(), "5b0e27944cc2dd99cd0d67209c0529f86e64c00f4b4359ea7704fb09c4bc1f0c"),
        (dict(data_type="list"),
         "b6d54eceb762762f8e3f2f26983d7d7f761de53d480c6405b16e723d7bb963ec"),
        (dict(data_type="list", channel="causal"),
         "d58f3ebb9fc154354c072a3406eb325198b9fa66930dab9450f612289db15b1f"),
        (dict(bug_flags=BUG2),
         "1ffbfa5552266437bf008fb415a0ccfebd256fcda755ad6b183861cb0807af98"),
        (dict(data_type="list", bug_flags=BUG1),
         "f273eb03b457fa011025e114bd300627e3ca9cd56b00b8646f460b3326cd0093"),
        (dict(n=3, bug_flags=BUG2),  # 100 violations, capped
         "2a94451a2833061550679113f19d1c2f839d810ff1894916a033387b43f3d9e0"),
        (dict(n=3, data_type="list", bug_flags=BUG1),  # 72 violations
         "233ea81a7b4d4d4d8555f51e98973e727fba6d050a3a0087e8ebc6bab6618d95"),
        (dict(n=3, data_type="list", channel="causal"),
         "a28d22ccd99fc24eb6f4546578117e5972e45bdf0b7bbf3d058f5426159f59d2"),
        (dict(n=3, data_type="list", bug_flags=BUG1 | BUG2),
         "434ed1bf7b674db3ddb1a648dc17f8e7c07053f2464a2a01779e9cc5182d9996"),
    ],
)
def test_report_bytes_are_pinned(kw, digest):
    # Counts, violation lists and schedules are the regression oracle.
    assert report_digest(explore(cfg_of(**{"n": 2, "q": 3, **kw}))) == digest


def test_violation_cap_keeps_discovery_order(monkeypatch):
    cfg = cfg_of(n=2, q=3, bug_flags=BUG2)
    full = explore(cfg)
    assert len(full.violations) == 36
    assert not full.violations_capped
    monkeypatch.setattr(explorer, "VIOLATION_CAP", 10)
    capped = explore(cfg)
    assert capped.violations_capped
    assert capped.violations == full.violations[:10]


# -- budgets ------------------------------------------------------------------


def test_state_cap_raises_with_partial_report_attached():
    cfg = cfg_of(q=4, state_cap=50)
    with pytest.raises(BudgetExceeded) as exc:
        explore(cfg)
    partial = exc.value.report
    assert partial is not None
    assert not partial.exhaustive
    assert partial.states_visited >= 50


@pytest.mark.parametrize("kw,counts,digest", [
    (dict(n=2, q=3, state_cap=100), (100, 100, 0, 0),
     "642f4fc427a3e35f3af8083aed36beaf72f3ec01cdeb0b74c6ed0931ddccd17c"),
    (dict(data_type="list", n=3, q=3, state_cap=5_000), (5_000, 9_008, 0, 0),
     "7485d9490b08d95b7f6bbb8b6cfbd6ad29d33f9d8d24bcb0ebfb8e9c9002f76f"),
    # stopped in the last level, with terminal states and violations
    (dict(data_type="list", n=2, q=3, bug_flags=BUG1, state_cap=1_351), (1_351, 1_755, 834, 8),
     "3214dffbcfba108ba359dd6b6849fd817d782133c3a2611964832644cde1b0ea"),
], ids=["rpq-n2q3", "list-n3q3", "list-n2q3-bug1"])
def test_capped_partial_reports_are_pinned(kw, counts, digest):
    # a capped search counts the transitions it walked before the cap
    # stopped it, not the rest of the state it was expanding
    with pytest.raises(BudgetExceeded) as exc:
        explore(cfg_of(**kw))
    partial = exc.value.report
    assert (partial.distinct_states, partial.states_visited, partial.terminal_traces,
            len(partial.violations)) == counts
    assert report_digest(partial) == digest


def test_state_cap_raises_in_deduplicating_mode_too():
    cfg = cfg_of(n=2, q=3, state_cap=100)
    with pytest.raises(BudgetExceeded) as exc:
        explore(cfg)
    assert exc.value.report is not None
    assert not exc.value.report.exhaustive


@pytest.mark.parametrize("n", [1, 2])
def test_both_walks_stop_at_the_state_cap(n):
    cfg = cfg_of(n=n, q=3, state_cap=100)
    with pytest.raises(BudgetExceeded, match="exhausted after 100 distinct states") as exc:
        explore(cfg)
    for partial in (exc.value.report, enumerate_traces(cfg, check=True)):
        assert not partial.exhaustive
        assert partial.distinct_states == 100


def test_generous_cap_changes_nothing():
    report = explore(cfg_of(q=2, state_cap=10_000))
    assert report.exhaustive
    assert report.terminal_traces == 25


# -- pinned operation sets ----------------------------------------------------


def test_pinned_single_candidates_walk_one_client_path():
    pinned = (
        (OperationRequest("add", "e", 10),),
        (OperationRequest("remove", "e"),),
    )
    cfg = cfg_of(n=2, q=2, pinned_ops=pinned)
    report = explore(cfg)
    # one request per slot leaves only the three delivery interleavings
    assert report.terminal_traces == 3
    assert report.violations == ()


# Replica 1 never sees "zz", so its slot offers no request: once either
# insert of e1 has reached it, nothing is enabled.
PINNED_STUCK = (
    (OperationRequest("insert", "e1", 10), OperationRequest("insert", "e1", 20)),
    (OperationRequest("update", "zz", 10),),
)


def test_stuck_states_are_reported_by_both_walks():
    # Each of the two stuck states is its own violation.
    cfg = cfg_of(data_type="list", n=2, q=2, pinned_ops=PINNED_STUCK)
    deduped = explore(cfg)
    brute = enumerate_traces(cfg, check=True)
    for report in (deduped, brute):
        assert [(v.invariant, len(v.schedule)) for v in report.violations] == [("stuck", 2)] * 2
        for v in report.violations:
            gs = replay_schedule(cfg, v.schedule)
            assert not is_terminal(cfg, gs) and not enabled_events(cfg, gs)
    assert {v.schedule for v in deduped.violations} == {v.schedule for v in brute.violations}
    assert len({v.schedule for v in deduped.violations}) == 2
    # One replica: the state that inserted e2 offers no update of e1.  It
    # is stuck one level above the terminal level, which the
    # breadth-first search checks in a pass of its own.
    cfg = cfg_of(data_type="list", q=2, pinned_ops=(
        (OperationRequest("insert", "e1", 10), OperationRequest("insert", "e2", 10)),
        (OperationRequest("update", "e1", 20),),
    ))
    for report in (_explore_bfs(cfg, True), enumerate_traces(cfg, check=True)):
        assert (report.terminal_traces, report.distinct_states) == (1, 4)
        assert [(v.invariant, len(v.schedule)) for v in report.violations] == [("stuck", 1)]


def test_pinned_ops_fingerprint_differs_from_standard():
    pinned = ((OperationRequest("add", "e", 10),),
              (OperationRequest("remove", "e"),))
    assert config_fingerprint(cfg_of(n=2, q=2, pinned_ops=pinned)) != \
        config_fingerprint(cfg_of(n=2, q=2))


def test_pinned_ops_validation():
    with pytest.raises(BadConfig):
        cfg_of(n=2, q=2, pinned_ops=((OperationRequest("add", "e", 10),),))
    with pytest.raises(BadConfig):
        cfg_of(n=2, q=2, pinned_ops=(
            (OperationRequest("add", "e", 10),), ()))
    with pytest.raises(BadConfig):
        cfg_of(n=2, q=2, pinned_ops=(
            (OperationRequest("insert", "e", 10),),
            (OperationRequest("remove", "e"),)))
    # a repeated request would walk, count and emit each of its schedules twice
    add10 = OperationRequest("add", "e", 10)
    with pytest.raises(BadConfig, match="^pinned_ops slot 0 repeats a request"):
        cfg_of(q=2, pinned_ops=((add10, add10), (OperationRequest("remove", "e"),)))


@pytest.mark.parametrize("pinned", [
    ((1,),), (1,), 1, [(OperationRequest("add", "e", 10),)],
    ((OperationRequest("add", "e", True),),),  # a bool arg would render as True
    ((OperationRequest("add", ["e"], 10),),),  # nor could a list id be hashed
    # Requests no run issues.  An add without its arg would fail in the
    # view, an insert without one would write None into the oracle, and a
    # remove with an arg or an update with an anchor beside the plain
    # request would count each schedule of the same effect twice.
    ((OperationRequest("add", "e"),),),
    ((OperationRequest("insert", "e1"),),),
    ((OperationRequest("remove", "e"), OperationRequest("remove", "e", 1)),),
    ((OperationRequest("update", "e1", 10), OperationRequest("update", "e1", 10, "e1")),),
    ((OperationRequest("remove", ""),),),
])
def test_pinned_ops_of_the_wrong_type_are_refused_by_name(pinned):
    # every input is refused for either data type
    for data_type in ("rpq", "list"):
        with pytest.raises(BadConfig, match="pinned_ops"):
            cfg_of(data_type=data_type, q=1, pinned_ops=pinned)


@pytest.mark.parametrize("flags", ["bug1-readd-accept", ("bug1-readd-accept",), {"bug1-readd-accept"}])
def test_bug_flags_must_be_a_frozenset(flags):
    # a string is refused as itself, not as a list of its characters
    with pytest.raises(BadConfig, match=r"bug_flags must be a frozenset of flag names, got "):
        cfg_of(data_type="list", bug_flags=flags)


# -- the split depth-first walk -------------------------------------------------


def record_forks(monkeypatch) -> list:
    """The pids this process forks from now on."""
    pids: list = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


@pytest.fixture
def forks(monkeypatch) -> list:
    """Split every walk that may split; the pids this process forks."""
    if not explorer._can_fork():
        pytest.skip("a split walk needs os.fork and two CPUs")
    monkeypatch.setattr(explorer, "_SPLIT_MIN_NODES", 0)
    return record_forks(monkeypatch)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_split_walk_is_the_whole_walk(cfg: ExplorationConfig, forks: list, forked=True):
    """The split walk reports what one process walking every schedule
    (a state cap it never reaches keeps the walk whole) reports.  A walk
    that meets a violation is walked again in one process, so whether it
    forked first is checked only for a walk without one."""
    split = enumerate_traces(cfg, check=True)
    assert_no_child_left()
    whole = enumerate_traces(replace(cfg, state_cap=10**9), check=True)
    assert split.as_json() == whole.as_json()
    if not whole.violations:
        assert len(forks) == forked
    return split


def cut_of(cfg: ExplorationConfig) -> list:
    """(schedule, state) of each unit of a walk that prunes nothing above
    its cut, in walk order."""
    level = [((), initial_state(cfg))]
    while 0 < len(level) < explorer._SPLIT_UNITS:
        level = [(path + (ev,), succ) for path, gs in level
                 for ev, succ in explorer._successors(cfg, gs)]
    return level


@pytest.mark.parametrize("kw", [
    *(dict(data_type=t, q=q) for t in ("rpq", "list") for q in (1, 2, 3, 4)),
    dict(q=5),
    *(kw for kw in WALK_CONFIGS if kw.get("n", 1) > 1),
])
def test_split_walk_reports_what_one_process_reports(forks, kw):
    # a walk forks iff it has a level of 64 nodes to cut at: n=1 q<=2
    # and list n=2 q=2 have none
    cfg = cfg_of(**kw)
    assert_split_walk_is_the_whole_walk(cfg, forks, forked=len(cut_of(cfg)) > 1)


@pytest.mark.parametrize("kw", [
    dict(n=2, q=3, bug_flags=BUG2),
    dict(data_type="list", n=2, q=3, bug_flags=BUG1),
])
def test_split_walk_keeps_the_capped_violations(forks, monkeypatch, kw):
    # 36 and 8 violating states, of which the report keeps 3
    monkeypatch.setattr(explorer, "VIOLATION_CAP", 3)
    report = assert_split_walk_is_the_whole_walk(cfg_of(**kw), forks)
    assert report.violations_capped and len(report.violations) == 3


def test_split_walk_caps_the_report_as_one_process_does(forks, monkeypatch):
    # rpq q=3 is cut at its 125 leaves.  The first leaf's three violations
    # fill the report; every leaf whose oracle differs from it repeats
    # them and adds a fourth, which only caps the report.
    cfg = cfg_of(q=3)
    add10 = OperationRequest("add", "e", 10)
    schedule = tuple(ClientEvent(slot, 0, add10) for slot in range(3))
    first = render(replay_schedule(cfg, schedule))

    def violations(gs, oracle):
        names = ["v1", "v2", "v3"] + (["v4"] if oracle != first else [])
        return [(name, "") for name in names]

    monkeypatch.setattr(explorer, "VIOLATION_CAP", 3)
    monkeypatch.setattr(explorer, "state_digest", lambda gs: b"one state")
    monkeypatch.setattr(explorer, "terminal_violations", violations)
    report = assert_split_walk_is_the_whole_walk(cfg, forks)
    assert report.violations_capped
    assert [(v.invariant, v.schedule) for v in report.violations] == [
        (name, schedule) for name in ("v1", "v2", "v3")
    ]


def test_split_walk_keeps_stuck_states(forks):
    cfg = cfg_of(data_type="list", n=2, q=2, pinned_ops=PINNED_STUCK)
    report = assert_split_walk_is_the_whole_walk(cfg, forks)
    assert [v.invariant for v in report.violations] == ["stuck"] * 2


def test_split_walk_keeps_a_violation_above_the_cut(forks, monkeypatch):
    monkeypatch.setattr(explorer, "replica_violations",
                        lambda cfg, index, rep: [("position-range", f"replica {index}")])
    report = assert_split_walk_is_the_whole_walk(cfg_of(data_type="list", q=3), forks)
    assert [(v.invariant, v.schedule) for v in report.violations] == [("position-range", ())]


@pytest.mark.parametrize("unit, forked", [(0, False), (1, True)])
def test_split_walk_that_meets_a_violation_below_the_cut_is_walked_again(
    forks, monkeypatch, unit, forked
):
    # Only the root of one unit violates: the first unit is the probe,
    # walked before any fork; the second is claimed after the fork, by
    # either process.
    cfg = cfg_of(data_type="list", q=3)
    schedule, gs = cut_of(cfg)[unit]
    broken = state_digest(gs)
    check = explorer.state_violations
    monkeypatch.setattr(explorer, "state_violations", lambda cfg, gs: (
        [("position-range", "mutant")] if state_digest(gs) == broken else check(cfg, gs)))
    report = assert_split_walk_is_the_whole_walk(cfg, forks)
    assert len(forks) == forked
    assert [(v.invariant, v.schedule) for v in report.violations] == [
        ("position-range", schedule)]


@pytest.mark.parametrize("kw", [dict(n=2, q=3), dict(data_type="list", n=2, q=3)])
def test_split_walk_child_runs_the_patched_model(forks, monkeypatch, kw):
    # A child started by spawning would import the unpatched model and
    # count the attr-20 schedules of its share.  The mutant violates
    # nothing, so the split counts are the report.
    cfg = cfg_of(**kw)
    unpatched = enumerate_traces(replace(cfg, state_cap=10**9), check=True)
    candidates = explorer.candidate_requests
    monkeypatch.setattr(explorer, "candidate_requests", lambda cfg, state, slot: [
        r for r in candidates(cfg, state, slot) if slot == 0 or r.arg != 20])
    report = assert_split_walk_is_the_whole_walk(cfg, forks)
    assert not report.violations
    assert (report.distinct_states, report.terminal_traces) != (
        unpatched.distinct_states, unpatched.terminal_traces)


def fail_in(process: str, forks: list, exc: BaseException, monkeypatch):
    """Make ``_successors`` raise ``exc`` in the forked child, or here
    once the child is forked."""
    here = os.getpid()
    successors = explorer._successors

    def failing(cfg, gs, store=explorer._Direct):
        if (os.getpid() != here) if process == "child" else bool(forks):
            raise exc
        return successors(cfg, gs, store)

    monkeypatch.setattr(explorer, "_successors", failing)


def test_a_child_that_raises_hands_the_walk_to_one_process(forks, monkeypatch):
    # Only the child raises, so the one-process walk after it finishes.
    fail_in("child", forks, BadConfig("raised in the child"), monkeypatch)
    assert_split_walk_is_the_whole_walk(cfg_of(q=4), forks)


@pytest.mark.parametrize("how", ["exit", "SIGKILL"])
def test_a_child_that_ends_without_its_counts_hands_the_walk_to_one_process(
    forks, monkeypatch, how
):
    # The child ends inside its first unit, sending nothing; the caller
    # walks the units it left and finds no counts to add.
    here = os.getpid()
    successors = explorer._successors

    def ending_in_child(cfg, gs, store=explorer._Direct):
        if os.getpid() != here:
            if how == "exit":
                os._exit(1)
            os.kill(os.getpid(), signal.SIGKILL)
        return successors(cfg, gs, store)

    monkeypatch.setattr(explorer, "_successors", ending_in_child)
    assert_split_walk_is_the_whole_walk(cfg_of(q=4), forks)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="lists open descriptors in /dev/fd")
def test_a_failed_fork_hands_the_walk_to_one_process(monkeypatch):
    tried: list = []

    def no_process(*args):
        tried.append(True)
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(explorer, "_SPLIT_MIN_NODES", 0)
    monkeypatch.setattr(explorer, "_can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", no_process, raising=False)
    cfg = cfg_of(q=4)
    before = set(os.listdir("/dev/fd"))
    split = enumerate_traces(cfg, check=True)
    assert set(os.listdir("/dev/fd")) == before
    assert tried == [True]
    whole = enumerate_traces(replace(cfg, state_cap=10**9), check=True)
    assert split.as_json() == whole.as_json()


@pytest.mark.parametrize("exc", [BadConfig("raised in the caller"), KeyboardInterrupt()])
def test_an_exception_in_the_caller_leaves_no_child(forks, monkeypatch, exc):
    fail_in("caller", forks, exc, monkeypatch)
    with pytest.raises(type(exc)):
        enumerate_traces(cfg_of(q=4), check=True)
    assert len(forks) == 1
    assert_no_child_left()


def test_an_interrupt_while_the_caller_waits_kills_the_child(forks, monkeypatch):
    # The child's share starts with a minute's sleep, so the caller has
    # walked its own share and waits on the pipe when the interrupt
    # arrives.  Waiting for the child instead of killing it would take
    # that minute.
    here = os.getpid()
    successors = explorer._successors
    calls: list = []
    slept: list = []

    def slow_in_child(cfg, gs, store=explorer._Direct):
        if os.getpid() != here and not slept:
            slept.append(True)
            time.sleep(60)
        calls.append(time.monotonic())
        return successors(cfg, gs, store)

    interrupted: list = []

    def interrupt(signum, frame):
        interrupted.append(time.monotonic())
        raise KeyboardInterrupt

    monkeypatch.setattr(explorer, "_successors", slow_in_child)
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(KeyboardInterrupt):
            enumerate_traces(cfg_of(q=4), check=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1
    assert_no_child_left()
    assert interrupted[0] - calls[-1] > 0.5, "the caller was still walking"
    assert time.monotonic() - interrupted[0] < 30


def test_a_slow_child_does_not_hold_the_walk_back(forks, monkeypatch):
    # The child sleeps 2 s in the first unit it claims.  Units come off
    # one queue, so meanwhile the caller claims the others: more than
    # half of the units after the probe, where a fixed every-other-unit
    # split would leave it exactly half.
    cfg = cfg_of(q=4)
    here = os.getpid()
    successors = explorer._successors
    slept: list = []

    def slow_in_child(cfg, gs, store=explorer._Direct):
        if os.getpid() != here and not slept:
            slept.append(True)
            time.sleep(2)
        return successors(cfg, gs, store)

    mine: list = []  # the unit roots this process walks after the fork
    node = explorer._Walk.node

    def counting(self, gs):
        if forks and not self.path and os.getpid() == here:
            mine.append(gs)
        return node(self, gs)

    monkeypatch.setattr(explorer, "_successors", slow_in_child)
    monkeypatch.setattr(explorer._Walk, "node", counting)
    split = enumerate_traces(cfg, check=True)
    walked = len(mine)
    assert_no_child_left()
    whole = enumerate_traces(replace(cfg, state_cap=10**9), check=True)
    assert split.as_json() == whole.as_json()
    assert len(forks) == 1
    assert walked > (len(cut_of(cfg)) - 1) / 2


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="lists open descriptors in /dev/fd")
@pytest.mark.parametrize("how", ["whole", "violation", "child raises", "caller raises"])
def test_every_unit_is_claimed_once_and_the_queue_is_closed(forks, monkeypatch, tmp_path, how):
    # Both processes note each unit they claim in one file.  A walk that
    # ends normally claims every unit after the probe once; one that
    # gives up or raises claims none twice.  No descriptor stays open.
    # Only the caller's exception propagates: after the child's, the
    # walk is walked again in one process.
    cfg = cfg_of(q=4)
    units = cut_of(cfg)
    claims = tmp_path / "claims"
    claim = explorer._claim

    def noted(queue):
        for i in claim(queue):
            with open(claims, "a") as log:
                log.write(f"{i}\n")
            yield i

    monkeypatch.setattr(explorer, "_claim", noted)
    if how == "violation":
        broken = state_digest(units[5][1])
        check = explorer.state_violations
        monkeypatch.setattr(explorer, "state_violations", lambda cfg, gs: (
            [("position-range", "mutant")] if state_digest(gs) == broken else check(cfg, gs)))
    elif how != "whole":
        fail_in(how.split()[0], forks, BadConfig(how), monkeypatch)
    before = set(os.listdir("/dev/fd"))
    if how == "caller raises":
        with pytest.raises(BadConfig, match=f"^{how}$"):
            enumerate_traces(cfg, check=True)
        assert_no_child_left()
    else:
        assert_split_walk_is_the_whole_walk(cfg, forks)
    assert set(os.listdir("/dev/fd")) == before
    assert len(forks) == 1
    claimed = sorted(map(int, claims.read_text().split()))
    assert len(set(claimed)) == len(claimed)
    if how == "whole":
        assert claimed == list(range(len(units) - 1))


def test_unit_records_that_overflow_the_pipe_leave_the_walk_in_one_process(forks):
    # Every record is written before the fork, so one that did not fit
    # in the pipe's buffer would block the walk for good.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_GETPIPE_SZ"):
        pytest.skip("needs F_GETPIPE_SZ to size the walk past the pipe's buffer")
    r, w = os.pipe()
    try:
        records = fcntl.fcntl(w, fcntl.F_GETPIPE_SZ) // explorer._RECORD
    finally:
        os.close(r)
        os.close(w)
    if records > 1 << 14:
        pytest.skip("the pipe buffers more records than this walk is sized for")
    # one unit per add at depth 1, each with one remove below it
    adds = tuple(OperationRequest("add", "e", k) for k in range(records + 2))
    cfg = cfg_of(q=2, pinned_ops=(adds, (OperationRequest("remove", "e"),)))
    report = assert_split_walk_is_the_whole_walk(cfg, forks, forked=False)
    assert report.terminal_traces == len(adds)


@pytest.mark.parametrize("how", ["state_cap", "emit", "oracles", "thread", "one_cpu"])
def test_walks_that_cannot_split_never_fork(monkeypatch, how):
    monkeypatch.setattr(explorer, "_SPLIT_MIN_NODES", 0)

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    if how == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg = cfg_of(q=4, state_cap=10**9 if how == "state_cap" else None)
    emit = (lambda schedule, oracle: None) if how == "emit" else None
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if how == "thread":
        thread.start()
    try:
        if how == "oracles":  # oracles are counted through ``emit``
            report, oracles = walk_with_oracles(cfg, check=True)
            assert sum(oracles.values()) == 5**4
        else:
            report = enumerate_traces(cfg, emit, check=True)
    finally:
        release.set()
        if how == "thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert report.terminal_traces == 5**4


@pytest.mark.parametrize("kw, forked", [
    (dict(q=4), False),
    (dict(data_type="list", q=4), True),
    (dict(q=5), True),
])
def test_walks_split_from_the_measured_threshold(monkeypatch, kw, forked):
    # rpq n=1 q=4 is estimated at 744 nodes, below _SPLIT_MIN_NODES
    if forked and not explorer._can_fork():
        pytest.skip("a split walk needs os.fork and two CPUs")
    forks = record_forks(monkeypatch)
    enumerate_traces(cfg_of(**kw), check=True)
    assert len(forks) == forked
    assert_no_child_left()
