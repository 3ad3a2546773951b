"""Replay verdicts, in-flight messages, and the stress driver."""

from __future__ import annotations

import hashlib
import io
import json
import socket
import struct
import threading

import pytest

from crdtcheck.cli import main
from crdtcheck.errors import BadConfig, MalformedCase, UnknownFlag
from crdtcheck.explorer import (
    ClientEvent,
    DeliverEvent,
    ExplorationConfig,
    config_fingerprint,
    replay_schedule,
)
from crdtcheck.harness import (
    DIVERGED,
    PASS,
    REJECTED,
    REPLICA_ERROR,
    LoopbackEndpoint,
    SocketEndpoint,
    _diff_at,
    loopback_factory,
    replay_case,
    replay_corpus,
    stress,
)
from crdtcheck.operations import OperationRequest
from crdtcheck.server import ReplicaServer
from crdtcheck.testgen import case_line, generate_corpus, iter_corpus, parse_case_line
from crdtcheck.wire import FrameSocket


def rpq_cfg(**kw) -> ExplorationConfig:
    base = dict(data_type="rpq", n=2, q=2)
    base.update(kw)
    return ExplorationConfig(**base)


def corpus_text(cfg) -> str:
    out = io.StringIO()
    generate_corpus(cfg, out)
    return out.getvalue()


def test_diff_at():
    assert _diff_at("abc", "abc") is None
    assert _diff_at("", "") is None
    assert _diff_at("abc", "abd") == 2
    assert _diff_at("xbc", "abc") == 0
    # a strict prefix differs where the shorter side ends
    assert _diff_at("abc", "abcd") == 3
    assert _diff_at("", "x") == 0
    # the offset counts UTF-8 bytes: "é" is two of them
    assert _diff_at("é1", "é2") == 2


# -- single-case verdicts ----------------------------------------------------


def first_case(cfg):
    text = corpus_text(cfg)
    return next(iter_corpus(io.StringIO(text)))


def test_pass_verdict():
    cfg = rpq_cfg()
    tc = first_case(cfg)
    result = replay_case(tc, loopback_factory(cfg)(), config_fingerprint(cfg), cfg.q)
    assert result.status == PASS
    assert result.as_json()["status"] == "pass"


def test_fingerprint_mismatch_is_rejected_before_any_replay():
    cfg = rpq_cfg()
    other = rpq_cfg(q=3)
    tc = first_case(cfg)
    result = replay_case(tc, loopback_factory(other)(), config_fingerprint(other), other.q)
    assert result.status == REJECTED
    assert "fingerprint" in result.detail


def test_oracle_arity_mismatch_is_rejected():
    cfg = rpq_cfg()
    tc = first_case(cfg)
    crippled = type(tc)(
        case_id=tc.case_id,
        fingerprint=tc.fingerprint,
        schedule=tc.schedule,
        oracle=tc.oracle + ("extra",),
    )
    result = replay_case(crippled, loopback_factory(cfg)(), config_fingerprint(cfg), cfg.q)
    assert result.status == REJECTED
    assert "oracle" in result.detail


def test_tampered_oracle_diverges_with_a_byte_offset():
    cfg = rpq_cfg()
    tc = first_case(cfg)
    broken_oracle = tuple(s.replace('"seen"', '"sean"', 1) for s in tc.oracle)
    tampered = type(tc)(
        case_id=tc.case_id, fingerprint=tc.fingerprint,
        schedule=tc.schedule, oracle=broken_oracle,
    )
    result = replay_case(tampered, loopback_factory(cfg)(), config_fingerprint(cfg), cfg.q)
    assert result.status == DIVERGED
    assert result.replica == 0
    assert result.diff_offset is not None and result.diff_offset >= 0
    assert broken_oracle[0][result.diff_offset] != tc.oracle[0][result.diff_offset]


def test_unsatisfiable_delivery_is_a_replica_error():
    # the schedule is a run, but the servers' fan-out drops every message,
    # so its first delivery finds none in flight
    cfg = rpq_cfg()
    tc = first_case(cfg)
    ev = next(ev for ev in tc.schedule if isinstance(ev, DeliverEvent))
    endpoints = [MangledFanout(ReplicaServer("rpq", i, 2), lambda syncs: []) for i in range(2)]
    result = replay_case(tc, endpoints, config_fingerprint(cfg), cfg.q)
    assert result.status == REPLICA_ERROR
    assert result.replica == ev.dest
    assert result.detail == (
        f"no in-flight message from replica {ev.origin} dot counter "
        f"{ev.counter} for replica {ev.dest}"
    )


def test_rejected_scheduled_request_is_a_replica_error():
    cfg = ExplorationConfig(data_type="list", n=1, q=2)
    dup = OperationRequest("insert", "e1", 10)
    schedule = (ClientEvent(0, 0, dup), ClientEvent(1, 0, dup))
    tc = parse_case_line(1, case_line(config_fingerprint(cfg), schedule, ("{}",)))
    result = replay_case(tc, loopback_factory(cfg)(), config_fingerprint(cfg), cfg.q)
    assert result.status == REPLICA_ERROR
    assert result.replica == 0
    assert "rejected" in result.detail


# field of the replica index in a client ("C") and a delivery ("D") event
REPLICA_FIELD = {"C": 3, "D": 1}


def recased(doc: dict) -> str:
    """The corpus line of ``doc`` under a recomputed (so still valid)
    case id."""
    blob = json.dumps(doc["sched"], separators=(",", ":"), ensure_ascii=False)
    doc["case"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return json.dumps(doc, separators=(",", ":"))


def edited_line(cfg, tag: str, field: int, value) -> str:
    """The first corpus line with field ``field`` of its first ``tag``
    event set to ``value``, under a recomputed case id."""
    doc = json.loads(corpus_text(cfg).splitlines()[0])
    event = next(ev for ev in doc["sched"] if ev[0] == tag)
    event[field] = value
    return recased(doc)


def extra_slot_line(cfg) -> str:
    """The first corpus line with a client event for slot q appended,
    under a recomputed case id: it keeps the slot rule, but the
    configuration has no slot q."""
    doc = json.loads(corpus_text(cfg).splitlines()[0])
    insert = {"anchor": None, "arg": 10, "id": "e9", "kind": "insert"}
    doc["sched"].append(["C", cfg.q, insert, cfg.q % cfg.n])
    return recased(doc)


@pytest.mark.parametrize("tag", ["C", "D"])
@pytest.mark.parametrize("index", [7, -1])
def test_out_of_range_replica_is_rejected(tag, index):
    # a corrupted corpus must neither crash replay nor drive the last
    # replica through a negative index, nor be blamed on the servers
    cfg = rpq_cfg()
    line = edited_line(cfg, tag, REPLICA_FIELD[tag], index)
    summary = replay_corpus(cfg, io.StringIO(line))
    assert (summary.cases, summary.rejected) == (1, 1)
    [failure] = summary.first_failures
    assert failure["detail"] == f"schedule names replica {index}, configuration has 2"


# Edits of the first list n=2 q=3 line, whose first client event is slot 0
# at replica 0: (tag, field, value, detail).
MISFITS = {
    "slot-moved": ("C", 1, 7, "client event 0 takes slot 7 at replica 0, not slot 0 at replica 0"),
    "target-swapped": ("C", 3, 1, "client event 0 takes slot 0 at replica 1, not slot 0 at replica 0"),
    "target-outside": ("C", 3, 5, "schedule names replica 5, configuration has 2"),
    "origin-outside": ("D", 2, 2, "schedule names replica 2, configuration has 2"),
    "dest-outside": ("D", 1, 2, "schedule names replica 2, configuration has 2"),
}


@pytest.mark.parametrize("name", sorted(MISFITS))
def test_a_case_that_is_no_run_of_the_configuration_is_rejected(name):
    tag, field, value, detail = MISFITS[name]
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    summary = replay_corpus(cfg, io.StringIO(edited_line(cfg, tag, field, value)))
    assert (summary.cases, summary.rejected) == (1, 1)
    [failure] = summary.first_failures
    assert (failure["status"], failure["detail"]) == (REJECTED, detail)


def test_a_client_event_past_the_last_slot_is_rejected():
    # the servers would accept the extra insert and so diverge from the
    # oracle, which is the state after q slots
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    summary = replay_corpus(cfg, io.StringIO(extra_slot_line(cfg)))
    assert (summary.cases, summary.rejected) == (1, 1)
    [failure] = summary.first_failures
    assert (failure["status"], failure["detail"]) == (
        REJECTED, "client event 3 takes slot 3, configuration has 3 slots"
    )


def test_replay_of_a_case_past_the_last_slot_exits_one(tmp_path, capsys):
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    corpus = tmp_path / "misfit.jsonl"
    corpus.write_text(extra_slot_line(cfg) + "\n")
    code = main(["replay", "--type", "list", "-n", "2", "-q", "3", str(corpus)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["rejected"] == 1


@pytest.mark.parametrize("name", ["slot-moved", "target-outside"])
def test_replay_of_a_misfit_case_exits_one(name, tmp_path, capsys):
    tag, field, value, _ = MISFITS[name]
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    corpus = tmp_path / "misfit.jsonl"
    corpus.write_text(edited_line(cfg, tag, field, value) + "\n")
    code = main(["replay", "--type", "list", "-n", "2", "-q", "3", str(corpus)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["rejected"] == 1


def cut_line(cfg, keep: slice) -> str:
    """The first corpus line with its schedule cut to ``keep``, under a
    recomputed case id."""
    doc = json.loads(corpus_text(cfg).splitlines()[0])
    doc["sched"] = doc["sched"][keep]
    return recased(doc)


# Cuts of the first list n=2 q=3 line, whose last event is ["D",1,0,2]:
# (events kept, detail).  A complete run has q client events and q*(n-1)
# deliveries.
CUTS = {
    "last-dropped": (slice(None, -1), "schedule has 3 client event(s) and "
                     "2 delivery event(s), a complete run has 3 and 3"),
    "one-delivery": (slice(-1, None), "schedule has 0 client event(s) and "
                     "1 delivery event(s), a complete run has 3 and 3"),
}


class Untouchable:
    """An endpoint that fails the test if any frame reaches it."""

    def send(self, frame: dict) -> dict:
        raise AssertionError(f"frame sent: {frame!r}")


@pytest.mark.parametrize("name", sorted(CUTS))
def test_an_incomplete_schedule_is_rejected_before_any_frame(name):
    # a flagless server would diverge from the oracle (the last delivery
    # missing) or fail a delivery it never got the message for
    keep, detail = CUTS[name]
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    assert json.loads(corpus_text(cfg).splitlines()[0])["sched"][-1] == ["D", 1, 0, 2]
    tc = parse_case_line(1, cut_line(cfg, keep))
    result = replay_case(tc, [Untouchable(), Untouchable()], config_fingerprint(cfg), cfg.q)
    assert (result.status, result.detail) == (REJECTED, detail)


def test_replay_of_an_incomplete_case_exits_one(tmp_path, capsys):
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    corpus = tmp_path / "cut.jsonl"
    corpus.write_text(cut_line(cfg, CUTS["last-dropped"][0]) + "\n")
    code = main(["replay", "--type", "list", "-n", "2", "-q", "3", str(corpus)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["rejected"] == 1


# Edits of the first list n=2 q=3 line, whose schedule is client events
# at replicas 0, 1, 0, then ["D",0,1,1], ["D",1,0,1], ["D",1,0,2]:
# (edit, detail).  Each keeps the run complete and the slot rule, but
# no run contains the edited delivery.
NO_RUN_EDITS = {
    "self-delivery": (lambda s: s[:-1] + [["D", 0, 0, 2]],
                      "delivery of message 2 from replica 0 to replica 0 is in no run: "
                      "a replica's own messages are not delivered to it"),
    "before-issue": (lambda s: s[:2] + s[-1:] + s[2:-1],
                     "delivery of message 2 from replica 0 to replica 1 is in no run: "
                     "replica 0 has issued 1 message(s) by then"),
    "never-issued": (lambda s: s[:3] + [["D", 0, 1, 11]] + s[4:],
                     "delivery of message 11 from replica 1 to replica 0 is in no run: "
                     "replica 1 has issued 1 message(s) by then"),
    "repeated": (lambda s: s[:4] + [s[3]] + s[5:],
                 "delivery of message 1 from replica 1 to replica 0 is in no run: "
                 "it was delivered before"),
}


@pytest.mark.parametrize("name", sorted(NO_RUN_EDITS))
def test_a_delivery_no_run_contains_is_rejected_before_any_frame(name, tmp_path, capsys):
    # a flagless server would find no such message in flight
    edit, detail = NO_RUN_EDITS[name]
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    doc = json.loads(corpus_text(cfg).splitlines()[0])
    assert [ev[0] for ev in doc["sched"]] == ["C"] * 3 + ["D"] * 3
    assert doc["sched"][3:] == [["D", 0, 1, 1], ["D", 1, 0, 1], ["D", 1, 0, 2]]
    doc["sched"] = edit(doc["sched"])
    line = recased(doc)
    tc = parse_case_line(1, line)
    result = replay_case(tc, [Untouchable(), Untouchable()], config_fingerprint(cfg), cfg.q)
    assert (result.status, result.detail) == (REJECTED, detail)
    corpus = tmp_path / "edited.jsonl"
    corpus.write_text(line + "\n")
    assert main(["replay", "--type", "list", "-n", "2", "-q", "3", str(corpus)]) == 1
    assert json.loads(capsys.readouterr().out)["rejected"] == 1


def test_replica_errors_are_counted_and_replay_exits_two(tmp_path, capsys):
    # a run of the right shape whose first request removes an element no
    # replica has: the server refuses it
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    refused = edited_line(cfg, "C", 2, {"anchor": None, "arg": None, "id": "e9", "kind": "remove"})
    text = refused + "\n" + corpus_text(cfg).splitlines()[0] + "\n"
    summary = replay_corpus(cfg, io.StringIO(text))
    assert (summary.cases, summary.passed, summary.replica_error,
            summary.diverged, summary.rejected) == (2, 1, 1, 0, 0)
    [failure] = summary.first_failures
    assert failure["status"] == REPLICA_ERROR and "was rejected" in failure["detail"]
    corpus = tmp_path / "refused.jsonl"
    corpus.write_text(refused + "\n")
    assert main(["replay", "--type", "list", "-n", "2", "-q", "3", str(corpus)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert (doc["replica_error"], doc["diverged"], doc["rejected"]) == (1, 0, 0)


@pytest.mark.parametrize("tag", ["C", "D"])
def test_boolean_replica_index_is_malformed(tag):
    # JSON true decodes to a bool, which Python counts as the int 1
    cfg = rpq_cfg()
    with pytest.raises(MalformedCase) as exc:
        replay_corpus(cfg, io.StringIO(edited_line(cfg, tag, REPLICA_FIELD[tag], True)))
    assert exc.value.field == "sched"


def refused_requests(rep) -> list[OperationRequest]:
    """Requests the list replica ``rep`` must refuse: an insert of an id
    in use, an insert anchored on a removed or an unknown element, and an
    update, remove or re-add of an unknown id."""
    removed = sorted(set(rep.elems) - set(rep.existent()))
    return [
        *(OperationRequest("insert", elem, 1) for elem in sorted(rep.elems)),
        *(OperationRequest("insert", "fresh", 1, anchor) for anchor in [*removed, "unknown"]),
        OperationRequest("update", "unknown", 1),
        OperationRequest("remove", "unknown"),
        OperationRequest("readd", "unknown"),
    ]


def test_model_and_server_agree_on_refusals():
    # Corpora hold only valid requests and stress draws none the model
    # refuses, so this compares the two implementations' refusals: at
    # every replica at the end of every list n=2 q=3 schedule.
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    fp = config_fingerprint(cfg)
    refused = {"accepted": False, "syncs": [], "type": "Ack"}
    probes = 0
    for tc in iter_corpus(io.StringIO(corpus_text(cfg))):
        endpoints = loopback_factory(cfg)()
        assert replay_case(tc, endpoints, fp, cfg.q).status == PASS
        gs = replay_schedule(cfg, tc.schedule)
        for i, ep in enumerate(endpoints):
            before = ep.send({"type": "Inspect"})
            for req in refused_requests(gs[1 + i]):
                assert gs[1 + i].request_error(req) is not None, req
                assert ep.send({"req": req.as_wire(), "type": "ClientOp"}) == refused, req
                assert ep.send({"type": "Inspect"}) == before, req
                probes += 1
    assert probes == 11_688  # 908 schedules, two replicas each


# -- corpus-level replay -------------------------------------------------------


def test_replay_refuses_an_unknown_flag_before_any_case():
    # an empty corpus builds no server, so only the factory can refuse it
    with pytest.raises(UnknownFlag, match="'nope' is not in the bug catalog"):
        replay_corpus(rpq_cfg(), io.StringIO(""), bug_flags=["nope"])


@pytest.mark.parametrize("flags, error", [
    (("bug7-idgen-order",), BadConfig),
    (("nope",), UnknownFlag),
], ids=["catalogued", "unknown"])
def test_bug_flags_with_custom_endpoints_are_refused(flags, error):
    # the flags configure only the loopback servers: with endpoints the
    # caller made, they would be dropped and a flagged run would pass
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    with pytest.raises(error):
        replay_corpus(cfg, io.StringIO(corpus_text(cfg)), bug_flags=flags,
                      endpoints_factory=loopback_factory(cfg))
    # an empty endpoint list is endpoints too, not a call for loopback ones
    for endpoints in (loopback_factory(cfg)(), []):
        with pytest.raises(error):
            stress("list", 2, seed=1, rounds=1, ops_per_round=1, bug_flags=flags,
                   endpoints=endpoints)


@pytest.mark.parametrize("entry", [
    lambda flags: ReplicaServer("list", 0, 2, flags),
    lambda flags: replay_corpus(rpq_cfg(), io.StringIO(""), bug_flags=flags),
    lambda flags: stress("list", 2, seed=1, rounds=1, ops_per_round=1, bug_flags=flags),
], ids=["server", "replay", "stress"])
def test_a_bug_flag_string_is_refused_as_a_whole(entry):
    # a string iterates as its characters, the first of which is 'b'
    with pytest.raises(UnknownFlag, match="got the string 'bug1-readd-accept'"):
        entry("bug1-readd-accept")


def test_flagless_replay_passes_everything():
    cfg = rpq_cfg()
    summary = replay_corpus(cfg, io.StringIO(corpus_text(cfg)))
    assert summary.clean
    assert summary.cases == 75
    assert summary.passed == 75
    assert summary.first_failures == []


def test_summary_json_is_timing_free_and_stable():
    cfg = rpq_cfg()
    a = replay_corpus(cfg, io.StringIO(corpus_text(cfg))).as_json()
    b = replay_corpus(cfg, io.StringIO(corpus_text(cfg))).as_json()
    assert a == b
    assert set(a.keys()) == {
        "cases", "diverged", "first_failures", "pass", "rejected", "replica_error"
    }


def test_buggy_server_diverges_and_failures_are_reported():
    # q = 3 is the smallest scope where a dependency-carrying message
    # can reach a replica that has not seen the dependency yet; at q = 2
    # the assume-causal shortcut is unobservable.
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    text = corpus_text(cfg)
    summary = replay_corpus(
        cfg, io.StringIO(text), bug_flags=("bug2-assume-causal",)
    )
    assert summary.diverged > 0
    assert not summary.clean
    assert summary.passed + summary.diverged == summary.cases
    assert summary.first_failures
    first = summary.first_failures[0]
    assert first["status"] == "diverged"
    assert first["diff_offset"] >= 0


def test_failure_reporting_is_capped():
    cfg = ExplorationConfig(data_type="list", n=2, q=3)
    text = corpus_text(cfg)
    summary = replay_corpus(
        cfg, io.StringIO(text), bug_flags=("bug4-dummy-position",)
    )
    assert summary.diverged > 10
    assert len(summary.first_failures) == 10


# -- malformed sync fan-out ----------------------------------------------------

# Each rewrites an honest ClientOp reply's "syncs" list.
BAD_FANOUTS = {
    "dest-missing": lambda syncs: [{"to": s["dest"], "msg": s["msg"]} for s in syncs],
    "dest-not-int": lambda syncs: [{**s, "dest": [s["dest"]]} for s in syncs],
    # JSON true is 1 to isinstance(x, int), and as a key of the in-flight messages
    "dest-bool": lambda syncs: [{**s, "dest": bool(s["dest"])} for s in syncs],
    "msg-missing": lambda syncs: [{"dest": s["dest"]} for s in syncs],
    "dot-missing": lambda syncs: [
        {**s, "msg": {**s["msg"], "op": {}}} for s in syncs
    ],
    "not-an-array": lambda syncs: {"dest": 1},
    # in-flight messages are keyed (dest, origin, counter): one per key
    "dest-twice": lambda syncs: syncs + syncs[:1],
}


class MangledFanout:
    """Honest server whose accepted ClientOp replies carry a bad fan-out."""

    def __init__(self, server: ReplicaServer, mangle):
        self._inner = LoopbackEndpoint(server)
        self._mangle = mangle

    def send(self, obj: dict) -> dict:
        reply = self._inner.send(obj)
        if obj["type"] == "ClientOp" and reply.get("accepted"):
            reply = {**reply, "syncs": self._mangle(reply["syncs"])}
        return reply


@pytest.mark.parametrize("name", sorted(BAD_FANOUTS))
def test_bad_fanout_is_a_replica_error_in_replay(name):
    cfg = rpq_cfg()
    tc = first_case(cfg)
    endpoints = [
        MangledFanout(ReplicaServer("rpq", i, 2), BAD_FANOUTS[name])
        for i in range(2)
    ]
    result = replay_case(tc, endpoints, config_fingerprint(cfg), cfg.q)
    assert result.status == REPLICA_ERROR
    assert result.replica == 0
    assert "fan-out" in result.detail


@pytest.mark.parametrize("name", sorted(BAD_FANOUTS))
def test_bad_fanout_is_a_replica_error_in_stress(name):
    endpoints = [
        MangledFanout(ReplicaServer("rpq", i, 2), BAD_FANOUTS[name])
        for i in range(2)
    ]
    report = stress("rpq", 2, seed=3, rounds=2, ops_per_round=5,
                    endpoints=endpoints)
    assert report.failure is not None
    assert report.failure.kind == "replica-error"
    assert report.ops == 1
    assert "fan-out" in report.failure.detail


# Each rewrites an honest ClientOp reply's "syncs" list of a 3-replica
# session into a well-formed fan-out to the wrong destinations.
WRONG_FANOUTS = {
    "one-dropped": lambda syncs: syncs[:-1],
    "to-itself": lambda syncs: [{**syncs[0], "dest": syncs[0]["msg"]["origin"]}, *syncs[1:]],
}


@pytest.mark.parametrize("name", sorted(WRONG_FANOUTS))
def test_fanout_to_the_wrong_replicas_is_an_issue_divergence(name):
    endpoints = [
        MangledFanout(ReplicaServer("rpq", i, 3), WRONG_FANOUTS[name])
        for i in range(3)
    ]
    report = stress("rpq", 3, seed=3, rounds=2, ops_per_round=5,
                    endpoints=endpoints)
    assert report.failure is not None
    assert report.failure.kind == "issue-divergence"
    assert report.ops == 1
    assert report.failure.detail.startswith("sync fan-out went to ")


# -- malformed replies -----------------------------------------------------------


def non_object_frame(frame: dict):
    """A real SocketEndpoint whose peer answers with the frame ``[1]``."""
    near, far = socket.socketpair()
    try:
        far.sendall(struct.pack(">I", 3) + b"[1]")
        return SocketEndpoint(FrameSocket(near)).send(frame)
    finally:
        near.close()
        far.close()


def deep_frame(frame: dict):
    """A real SocketEndpoint whose peer answers with a frame nested far
    past the recursion limit."""
    body = b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    near, far = socket.socketpair()
    # more than a socket buffer may hold: send while the endpoint reads
    sender = threading.Thread(target=far.sendall, args=(struct.pack(">I", len(body)) + body,))
    sender.start()
    try:
        return SocketEndpoint(FrameSocket(near)).send(frame)
    finally:
        sender.join()
        near.close()
        far.close()


def closed_peer(frame: dict):
    """A real SocketEndpoint whose peer has closed its end."""
    near, far = socket.socketpair()
    far.close()
    try:
        return SocketEndpoint(FrameSocket(near)).send(frame)
    finally:
        near.close()


def peer_closes_after_reading(frame: dict):
    """A real SocketEndpoint whose peer reads the frame, then closes."""
    near, far = socket.socketpair()

    def peer():
        FrameSocket(far).recv()
        far.close()

    reader = threading.Thread(target=peer)
    reader.start()
    try:
        return SocketEndpoint(FrameSocket(near)).send(frame)
    finally:
        reader.join(timeout=10)
        assert not reader.is_alive()
        near.close()


# name -> (frame type whose replies are replaced, replacement, detail or None)
BAD_REPLIES = {
    "array": ("ClientOp", lambda frame: [], None),
    "string": ("Sync", lambda frame: "x", None),
    "number": ("Inspect", lambda frame: 5, None),
    "state-not-a-string": (
        "Inspect", lambda frame: {"state": 7, "type": "InspectReply"}, None,
    ),
    "wrong-type": ("Sync", lambda frame: {"state": "", "type": "InspectReply"}, None),
    "socket-non-object-frame": ("ClientOp", non_object_frame, None),
    "socket-peer-closed": ("ClientOp", closed_peer, None),
    "socket-peer-closes-after-reading": (
        "ClientOp", peer_closes_after_reading, "connection closed",
    ),
    "socket-deep-frame": ("Inspect", deep_frame, None),
    "error": ("Sync", lambda frame: {"error": "boom", "type": "Error"}, "boom"),
}


class BadReplies:
    """Honest server whose replies to one frame type are replaced."""

    def __init__(self, server: ReplicaServer, kind: str, reply):
        self._inner = LoopbackEndpoint(server)
        self._kind = kind
        self._reply = reply

    def send(self, obj: dict):
        honest = self._inner.send(obj)
        return self._reply(obj) if obj["type"] == self._kind else honest


def bad_endpoints(name: str, n: int) -> list:
    kind, reply, _ = BAD_REPLIES[name]
    return [BadReplies(ReplicaServer("list", i, n), kind, reply) for i in range(n)]


@pytest.mark.parametrize("name", sorted(BAD_REPLIES))
def test_bad_reply_is_a_replica_error_in_replay(name):
    cfg = ExplorationConfig(data_type="list", n=2, q=2)
    tc = first_case(cfg)
    result = replay_case(tc, bad_endpoints(name, 2), config_fingerprint(cfg), cfg.q)
    assert result.status == REPLICA_ERROR
    assert result.replica in (0, 1)
    assert result.detail
    detail = BAD_REPLIES[name][2]
    assert detail is None or result.detail == detail


@pytest.mark.parametrize("name", sorted(BAD_REPLIES))
def test_bad_reply_is_a_replica_error_in_stress(name):
    report = stress("list", 2, seed=3, rounds=2, ops_per_round=5,
                    endpoints=bad_endpoints(name, 2))
    assert report.failure is not None
    assert report.failure.kind == "replica-error"
    assert report.failure.replica in (0, 1)
    detail = BAD_REPLIES[name][2]
    assert detail is None or report.failure.detail == detail


def test_server_refusing_what_the_model_accepts_is_a_rejection_mismatch():
    # the model accepts every priority-queue request
    refusal = {"accepted": False, "syncs": [], "type": "Ack"}
    endpoints = [
        BadReplies(ReplicaServer("rpq", i, 2), "ClientOp", lambda frame: refusal)
        for i in range(2)
    ]
    report = stress("rpq", 2, seed=3, rounds=2, ops_per_round=5, endpoints=endpoints)
    assert report.failure is not None
    assert report.failure.kind == "rejection-mismatch"
    assert report.failure.detail.endswith("; server rejected")
    assert report.ops == 0


# -- stress -----------------------------------------------------------------


@pytest.mark.parametrize("data_type", ["rpq", "list"])
def test_stress_runs_clean_against_the_honest_server(data_type):
    report = stress(data_type, 3, seed=7, rounds=6, ops_per_round=12)
    assert report.clean
    assert report.ops > 0
    assert report.deliveries > 0
    assert report.as_json()["failure"] is None


def test_stress_catches_a_seeded_defect():
    report = stress(
        "list", 2, seed=7, rounds=8, ops_per_round=20,
        bug_flags=("bug7-idgen-order",),
    )
    assert not report.clean
    assert report.failure is not None
    assert report.failure.kind in (
        "issue-divergence", "inspect-divergence", "rejection-mismatch",
    )


@pytest.mark.parametrize("data_type, n, rounds, ops, seed", [
    # these ids leave out the default seed
    pytest.param("set", 2, 1, 1, 1, id="set-2-1-1"),
    pytest.param("rpq", 0, 1, 1, 1, id="rpq-0-1-1"),
    pytest.param("list", 4, 1, 1, 1, id="list-4-1-1"),
    pytest.param("rpq", 2, 0, 1, 1, id="rpq-2-0-1"),
    pytest.param("list", 2, 1, 0, 1, id="list-2-1-0"),
    ("rpq", 2, 2.5, 1, 1), ("rpq", 2, 1, 1.5, 1), ("rpq", 2, True, 1, 1),
    ("rpq", 2, 1, 1, None),
])
def test_stress_refuses_a_bad_configuration(data_type, n, rounds, ops, seed):
    with pytest.raises(BadConfig):
        stress(data_type, n, seed=seed, rounds=rounds, ops_per_round=ops)


def test_stress_is_seed_deterministic():
    a = stress("rpq", 2, seed=11, rounds=5, ops_per_round=10)
    b = stress("rpq", 2, seed=11, rounds=5, ops_per_round=10)
    assert a.as_json() == b.as_json()


# (data type, seed, server flag, rounds, ops per round, sha256 of the
# report's sorted-key JSON).  Stress reports are a regression oracle: a
# clean report pins its counts, and a session a flag breaks pins where
# the seeded draws lead (round, replica, op count, byte offset).  The
# last entry is the benchmark's stress session.
STRESS_DIGESTS = [
    ("rpq", 1, None, 20, 40, "e506cda2c21144d99d1cf161b1b3402c531cc15b2c389153ed2a81387b875969"),
    ("rpq", 1, "bug1-readd-accept", 20, 40, "e506cda2c21144d99d1cf161b1b3402c531cc15b2c389153ed2a81387b875969"),
    ("rpq", 1, "bug2-assume-causal", 20, 40, "cdff930e4fe35ed3beb83e87089e9c5f616273c64cc587c8eb822a72a0feb8e3"),
    ("rpq", 1, "bug4-dummy-position", 20, 40, "e506cda2c21144d99d1cf161b1b3402c531cc15b2c389153ed2a81387b875969"),
    ("rpq", 1, "bug7-idgen-order", 20, 40, "e506cda2c21144d99d1cf161b1b3402c531cc15b2c389153ed2a81387b875969"),
    ("rpq", 2, None, 20, 40, "ef17c29d906545f972bd9b7420b55a4f138034524607d0734de73c98ced16bb5"),
    ("rpq", 2, "bug1-readd-accept", 20, 40, "ef17c29d906545f972bd9b7420b55a4f138034524607d0734de73c98ced16bb5"),
    ("rpq", 2, "bug2-assume-causal", 20, 40, "819124dca8a02eb6f4f13e9026342aad884572eea6a8eebebd24ac81cc052fa9"),
    ("rpq", 2, "bug4-dummy-position", 20, 40, "ef17c29d906545f972bd9b7420b55a4f138034524607d0734de73c98ced16bb5"),
    ("rpq", 2, "bug7-idgen-order", 20, 40, "ef17c29d906545f972bd9b7420b55a4f138034524607d0734de73c98ced16bb5"),
    ("list", 1, None, 20, 40, "e506cda2c21144d99d1cf161b1b3402c531cc15b2c389153ed2a81387b875969"),
    ("list", 1, "bug1-readd-accept", 20, 40, "62bceedc1395f49f0e2e90d02ed4ca9ec00cd14b90d503a0d33083fbe404beef"),
    ("list", 1, "bug2-assume-causal", 20, 40, "579afb330a5bd396357a492a00f9d4f0d4ce567e0cb347ddc896a19b74f6f816"),
    ("list", 1, "bug4-dummy-position", 20, 40, "bbcd109266b3d654066653295983bbeb9e722df0cc6013df191a44ca3b7eb335"),
    ("list", 1, "bug7-idgen-order", 20, 40, "6753cf2379160e2dfa532e48c4e6689f2e172cc78e267021c03ae4b809b61bce"),
    ("list", 2, None, 20, 40, "ef17c29d906545f972bd9b7420b55a4f138034524607d0734de73c98ced16bb5"),
    ("list", 2, "bug1-readd-accept", 20, 40, "69db4689e89d87d0df5f12be6934535cd226f5731caf2bc3bbd5353ffe262424"),
    ("list", 2, "bug2-assume-causal", 20, 40, "200bec269ae71e35019a0a57f510118d6b271c21105376c2e86355617b6851d3"),
    ("list", 2, "bug4-dummy-position", 20, 40, "69db4689e89d87d0df5f12be6934535cd226f5731caf2bc3bbd5353ffe262424"),
    ("list", 2, "bug7-idgen-order", 20, 40, "8afad7b764e6c0daaa43b994fd14405ead5ed31f5b6a7765c8f7dd6f09b29313"),
    ("list", 1, None, 40, 50, "454c103d1b5e0d20997bd492308a24da381e01f2d037544b9b90ee026c094535"),
]


@pytest.mark.parametrize(
    "data_type, seed, flag, rounds, ops, digest", STRESS_DIGESTS,
    ids=[f"{t}-s{s}-{f or 'flagless'}-{r}x{o}" for t, s, f, r, o, _ in STRESS_DIGESTS],
)
def test_stress_report_bytes_are_pinned(data_type, seed, flag, rounds, ops, digest):
    report = stress(data_type, 3, seed=seed, rounds=rounds, ops_per_round=ops,
                    bug_flags=(flag,) if flag else ())
    blob = json.dumps(report.as_json(), sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == digest


def test_loopback_endpoint_surfaces_errors_as_frames():
    ep = LoopbackEndpoint(ReplicaServer("rpq", 0, 2))
    reply = ep.send({"type": "Gossip"})
    assert reply["type"] == "Error"
