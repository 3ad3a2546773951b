"""Conformance harness: drive replica servers through schedules and
compare their canonical bytes against the model-produced oracle.

Replay mode walks a corpus line by line.  Each case gets a fresh set of
server instances (reset by reconstruction — no reset protocol to get
wrong), the schedule's client events are sent as ClientOp frames, the
returned sync messages wait, keyed by (destination, origin, counter),
until the schedule's deliver events hand them over, and a final Inspect
per replica is byte-compared against the case's oracle strings.

Verdicts per case:

- ``pass``           every replica matched its oracle string.
- ``diverged``       some replica's canonical bytes differ; the result
                     carries the replica index and the first differing
                     byte offset.
- ``replica-error``  the server rejected a scheduled client op, raised
                     an error, sent a malformed reply or sync fan-out,
                     or the schedule delivers a message a run may
                     deliver but the servers' fan-out never produced.
- ``rejected``       not a run of this configuration, so no frame was
                     sent: another configuration's fingerprint, an
                     oracle for another replica count, a replica index
                     (client target, delivery dest or origin) outside
                     0..n-1, client events that do not take slots
                     0, 1, ..., q-1 in order, slot i at replica i mod n,
                     a schedule that is not complete (a run has q
                     client events and q·(n-1) deliveries), or a
                     delivery no run contains: to its own origin, of a
                     counter its origin has not issued by then, or of
                     one message to one replica twice; or a client
                     request no run issues: a kind of the other data
                     type, an empty id, an arg missing on add,
                     increase, insert or update or present on remove
                     or readd, or an anchor on anything but an insert.

Replay summaries contain counts and the first few failing cases and
deliberately no timing, so summarizing the same corpus twice yields the
same bytes.

Stress mode is the randomized variant: seeded random client requests
against the servers with the model replicas run in lockstep, random
partial delivery while a round is open, full delivery plus a canonical
byte comparison at every round end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable

from .errors import BadConfig, CrdtCheckError, ProtocolViolation
from .explorer import ClientEvent, ExplorationConfig, config_fingerprint, request_shape_error
from .operations import RPQ, OperationRequest
from .replica import ReplicaState, fresh_replica
from .server import ReplicaServer, check_bug_flags
from .testgen import TestCase, iter_corpus
from .wire import canonical_json

PASS = "pass"
DIVERGED = "diverged"
REJECTED = "rejected"
REPLICA_ERROR = "replica-error"

MAX_REPORTED_FAILURES = 10


class LoopbackEndpoint:
    """In-process endpoint: frames go straight into the server object."""

    def __init__(self, server: ReplicaServer):
        self._server = server

    def send(self, obj: dict) -> dict:
        try:
            return self._server.handle_frame(obj)
        except CrdtCheckError as exc:
            return {"error": str(exc), "type": "Error"}


class SocketEndpoint:
    """Endpoint over a framed socket (see ``wire.FrameSocket``)."""

    def __init__(self, frame_socket):
        self._fs = frame_socket

    def send(self, obj: dict) -> dict:
        try:
            self._fs.send(obj)
            reply = self._fs.recv()
        except OSError as exc:
            raise ProtocolViolation(f"connection failed: {exc}") from None
        if reply is None:
            return {"error": "connection closed", "type": "Error"}
        return reply

    def close(self) -> None:
        try:
            self.send({"type": "Shutdown"})
        finally:
            self._fs.close()


def loopback_factory(cfg: ExplorationConfig, bug_flags=()) -> Callable[[], list]:
    bug_flags = check_bug_flags(bug_flags)  # refuse an unknown flag before any case runs
    def make() -> list:
        return [
            LoopbackEndpoint(ReplicaServer(cfg.data_type, i, cfg.n, bug_flags))
            for i in range(cfg.n)
        ]

    return make


@dataclass
class CaseResult:
    case_id: str
    status: str
    replica: int | None = None
    diff_offset: int | None = None
    detail: str = ""

    def as_json(self) -> dict:
        return {
            "case": self.case_id,
            "detail": self.detail,
            "diff_offset": self.diff_offset,
            "replica": self.replica,
            "status": self.status,
        }


@dataclass
class ReplaySummary:
    cases: int = 0
    passed: int = 0
    diverged: int = 0
    rejected: int = 0
    replica_error: int = 0
    first_failures: list = field(default_factory=list)

    def note(self, result: CaseResult) -> None:
        self.cases += 1
        if result.status == PASS:
            self.passed += 1
            return
        if result.status == DIVERGED:
            self.diverged += 1
        elif result.status == REJECTED:
            self.rejected += 1
        else:
            self.replica_error += 1
        if len(self.first_failures) < MAX_REPORTED_FAILURES:
            self.first_failures.append(result.as_json())

    @property
    def clean(self) -> bool:
        return self.cases == self.passed

    def as_json(self) -> dict:
        return {
            "cases": self.cases,
            "diverged": self.diverged,
            "first_failures": self.first_failures,
            "pass": self.passed,
            "rejected": self.rejected,
            "replica_error": self.replica_error,
        }


def _sync_fanout(reply: dict) -> dict[tuple[int, int, int], dict]:
    """The messages of an accepted ClientOp reply, keyed ``(dest,
    origin, counter)`` as a delivery event names them.

    Raises ``ProtocolViolation`` unless ``syncs`` is an array whose every
    entry has an integer ``dest`` and a ``msg`` object whose ``origin``
    and ``op.dot`` are integers, and no two entries share a key.
    """
    syncs = reply.get("syncs", [])
    fanout = {}
    try:
        for sync in syncs:
            msg = sync["msg"]
            key = (sync["dest"], msg["origin"], *msg["op"]["dot"])
            if [type(x) for x in key] != [int] * 4:
                break
            fanout[key[0], key[1], key[3]] = msg
        ok = len(fanout) == len(syncs)
    except (KeyError, TypeError):
        ok = False
    if not ok:
        raise ProtocolViolation(f"malformed sync fan-out: {syncs!r}")
    return fanout


def _diff_at(got: str, want: str) -> int | None:
    """None if the texts are equal, else the first offset where their
    UTF-8 bytes differ: the one place a canonical state is encoded."""
    if got == want:
        return None
    a, b = got.encode(), want.encode()
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _exchange(endpoint, frame: dict, want: str) -> dict:
    """Send one frame and return the reply.

    Raises ``ProtocolViolation`` unless the reply is an object of type
    ``want``, and an ``InspectReply`` carries a string ``state``.  An
    Error reply raises with the server's error text as the message.
    """
    reply = endpoint.send(frame)
    if not isinstance(reply, dict):
        raise ProtocolViolation(f"reply is not an object: {reply!r}")
    kind = reply.get("type")
    if kind == "Error":
        raise ProtocolViolation(str(reply.get("error", "")))
    if kind != want:
        raise ProtocolViolation(f"expected a {want} reply, got {kind!r}")
    if want == "InspectReply" and not isinstance(reply.get("state"), str):
        raise ProtocolViolation(f"state is not a string: {reply.get('state')!r}")
    return reply


def _misfit(tc: TestCase, n: int, cfg: ExplorationConfig, expected_fp: str) -> str | None:
    """Why ``tc`` is not a run of this configuration, or None if it is."""
    if tc.fingerprint != expected_fp:
        return (f"case fingerprint {tc.fingerprint[:12]}… does not match "
                f"this configuration ({expected_fp[:12]}…)")
    if len(tc.oracle) != n:
        return f"oracle covers {len(tc.oracle)} replicas, configuration has {n}"
    for ev in tc.schedule:
        for replica in (ev.target,) if isinstance(ev, ClientEvent) else (ev.dest, ev.origin):
            if not 0 <= replica < n:
                return f"schedule names replica {replica}, configuration has {n}"
    clients = [ev for ev in tc.schedule if isinstance(ev, ClientEvent)]
    for i, ev in enumerate(clients):
        if (ev.slot, ev.target) != (i, i % n):
            return (f"client event {i} takes slot {ev.slot} at replica {ev.target}, "
                    f"not slot {i} at replica {i % n}")
        if i == cfg.q:
            return f"client event {i} takes slot {i}, configuration has {cfg.q} slots"
        if (why := request_shape_error(cfg.data_type, ev.req)) is not None:
            return f"client event {i} is no {cfg.data_type} request: {why}"
    deliveries = len(tc.schedule) - len(clients)
    if (len(clients), deliveries) != (cfg.q, cfg.q * (n - 1)):
        return (f"schedule has {len(clients)} client event(s) and {deliveries} delivery "
                f"event(s), a complete run has {cfg.q} and {cfg.q * (n - 1)}")
    issued, delivered = [0] * n, set()  # counters issued so far, by replica
    for ev in tc.schedule:
        if isinstance(ev, ClientEvent):
            issued[ev.target] += 1
            continue
        if ev.dest == ev.origin:
            why = "a replica's own messages are not delivered to it"
        elif not 0 < ev.counter <= issued[ev.origin]:
            why = f"replica {ev.origin} has issued {issued[ev.origin]} message(s) by then"
        elif ev in delivered:
            why = "it was delivered before"
        else:
            delivered.add(ev)
            continue
        return (f"delivery of message {ev.counter} from replica {ev.origin} to replica "
                f"{ev.dest} is in no run: {why}")
    return None


def replay_case(
    tc: TestCase, endpoints: list, expected_fp: str, cfg: ExplorationConfig
) -> CaseResult:
    """Run one corpus case against freshly constructed endpoints, one per
    replica, of ``cfg``, whose fingerprint is ``expected_fp``."""
    n = len(endpoints)
    if (misfit := _misfit(tc, n, cfg, expected_fp)) is not None:
        return CaseResult(tc.case_id, REJECTED, detail=misfit)
    in_flight: dict[tuple[int, int, int], dict] = {}  # by (dest, origin, counter)
    replica = None  # the replica a failure is blamed on
    try:
        for ev in tc.schedule:
            replica = ev.target if isinstance(ev, ClientEvent) else ev.dest
            if isinstance(ev, ClientEvent):
                reply = _exchange(
                    endpoints[replica],
                    {"req": ev.req.as_wire(), "type": "ClientOp"}, "Ack",
                )
                if not reply.get("accepted"):
                    return CaseResult(
                        tc.case_id, REPLICA_ERROR, replica=replica,
                        detail=f"scheduled client op was rejected: {ev.req.as_wire()}",
                    )
                in_flight.update(_sync_fanout(reply))
            else:
                msg = in_flight.pop((ev.dest, ev.origin, ev.counter), None)
                if msg is None:
                    return CaseResult(
                        tc.case_id, REPLICA_ERROR, replica=replica,
                        detail=f"no in-flight message from replica {ev.origin} dot counter "
                        f"{ev.counter} for replica {ev.dest}",
                    )
                _exchange(endpoints[replica], {"msg": msg, "type": "Sync"}, "Ack")
        for replica in range(n):
            got = _exchange(
                endpoints[replica], {"type": "Inspect"}, "InspectReply"
            )["state"]
            offset = _diff_at(got, tc.oracle[replica])
            if offset is not None:
                return CaseResult(
                    tc.case_id, DIVERGED, replica=replica, diff_offset=offset,
                    detail=f"replica {replica} differs from the oracle at byte {offset}",
                )
    except ProtocolViolation as exc:
        return CaseResult(tc.case_id, REPLICA_ERROR, replica=replica, detail=str(exc))
    return CaseResult(tc.case_id, PASS)


def replay_corpus(
    cfg: ExplorationConfig,
    stream: IO[str],
    *,
    bug_flags: Iterable[str] = (),
    endpoints_factory: Callable[[], list] | None = None,
) -> ReplaySummary:
    """Replay every case in a JSONL stream, against loopback servers with
    ``bug_flags`` unless ``endpoints_factory`` makes the endpoints.
    Raises ``MalformedCase`` on unparseable lines, ``UnknownFlag`` for a
    flag outside the catalog and ``BadConfig`` for flags together with a
    factory, whose servers they could not reach."""
    if endpoints_factory is None:
        endpoints_factory = loopback_factory(cfg, bug_flags)
    elif check_bug_flags(bug_flags):
        raise BadConfig("bug flags configure the loopback servers; "
                        "custom endpoints take none")
    expected_fp = config_fingerprint(cfg)
    summary = ReplaySummary()
    for tc in iter_corpus(stream):
        summary.note(replay_case(tc, endpoints_factory(), expected_fp, cfg))
    return summary


# -- randomized stress conformance -----------------------------------------


@dataclass
class StressFailure:
    kind: str  # issue-divergence | inspect-divergence | rejection-mismatch | replica-error
    round_no: int
    replica: int
    detail: str

    def as_json(self) -> dict:
        return {
            "detail": self.detail,
            "kind": self.kind,
            "replica": self.replica,
            "round": self.round_no,
        }


class _Mismatch(ProtocolViolation):
    """A stress failure other than a replica error, named by ``kind``."""

    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind


@dataclass
class StressReport:
    seed: int
    rounds: int
    ops: int = 0
    rejected: int = 0  # always 0: stress issues only requests the model accepts
    deliveries: int = 0
    failure: StressFailure | None = None

    @property
    def clean(self) -> bool:
        return self.failure is None

    def as_json(self) -> dict:
        return {
            "deliveries": self.deliveries,
            "failure": self.failure.as_json() if self.failure else None,
            "ops": self.ops,
            "rejected": self.rejected,
            "rounds": self.rounds,
            "seed": self.seed,
        }


def _random_request(
    rng: random.Random, data_type: str, model: ReplicaState, fresh_id: str
) -> OperationRequest:
    """A request ``model`` accepts: priority-queue requests are total, a
    list insert takes a fresh id and an existent anchor, and any other
    list request names an element the model holds."""
    if data_type == RPQ:
        roll = rng.randrange(5)
        if roll < 2:
            return OperationRequest("add", "e", rng.randrange(0, 100))
        if roll < 4:
            return OperationRequest("increase", "e", rng.randrange(-9, 10))
        return OperationRequest("remove", "e")
    roll = rng.randrange(4)
    if roll == 0 or not model.elems:
        existent = sorted(model.existent())
        anchor = rng.choice([None, *existent]) if existent else None
        return OperationRequest("insert", fresh_id, rng.randrange(0, 100), anchor)
    elem = rng.choice(sorted(model.elems))
    if roll == 1:
        return OperationRequest("update", elem, rng.randrange(0, 100))
    if roll == 2:
        return OperationRequest("remove", elem)
    return OperationRequest("readd", elem)


def stress(
    data_type: str,
    n: int,
    *,
    seed: int,
    rounds: int = 20,
    ops_per_round: int = 40,
    bug_flags: Iterable[str] = (),
    endpoints: list | None = None,
) -> StressReport:
    """Seeded random conformance session.

    The model replicas run in lockstep with the servers: stress draws
    only requests the model accepts, a server that refuses one is a
    ``rejection-mismatch``, every request must produce byte-identical
    sync messages on both sides, and after each round drains the network
    the canonical bytes must match replica by replica.  Stops at the first
    failure.  The servers are loopback servers with ``bug_flags`` unless
    ``endpoints`` is given.  Raises ``BadConfig`` for an unknown data
    type, a replica count outside 1..3, a seed, round or op count that
    is not exactly an ``int``, fewer than one round or op per round, or
    bug flags together with ``endpoints``; ``UnknownFlag`` for a flag
    outside the catalog.
    """
    for name, value in (("seed", seed), ("rounds", rounds), ("ops_per_round", ops_per_round)):
        if type(value) is not int:  # not a bool: True would run as 1
            raise BadConfig(f"{name} must be an integer, got {value!r}")
    if rounds < 1 or ops_per_round < 1:
        raise BadConfig("rounds and ops per round must be positive")
    # The config checks the data type and n; q only has to be at least n.
    cfg = ExplorationConfig(data_type=data_type, n=n, q=n)
    rng = random.Random(seed)
    if endpoints is None:
        endpoints = loopback_factory(cfg, bug_flags)()
    elif check_bug_flags(bug_flags):
        raise BadConfig("bug flags configure the loopback servers; "
                        "custom endpoints take none")
    models = [fresh_replica(data_type, i) for i in range(n)]
    report = StressReport(seed=seed, rounds=rounds)
    # in-flight: list of (dest, wire message, model SyncMessage)
    in_flight: list = []
    issued = 0
    replica = 0  # the replica a failure is blamed on

    def deliver(index: int) -> None:
        nonlocal replica
        replica, wire_msg, model_msg = in_flight.pop(index)
        report.deliveries += 1
        _exchange(endpoints[replica], {"msg": wire_msg, "type": "Sync"}, "Ack")
        models[replica] = models[replica].deliver(model_msg)

    try:
        for round_no in range(rounds):
            for _ in range(ops_per_round):
                target = replica = rng.randrange(n)
                issued += 1
                req = _random_request(rng, data_type, models[target], f"x{issued}")
                reply = _exchange(
                    endpoints[target], {"req": req.as_wire(), "type": "ClientOp"}, "Ack"
                )
                if not reply.get("accepted"):
                    raise _Mismatch(
                        "rejection-mismatch", f"model accepts {req.as_wire()}; server rejected"
                    )
                report.ops += 1
                models[target], model_msg = models[target].issue(req)
                model_wire = canonical_json(model_msg.as_wire())
                fanout = _sync_fanout(reply)
                dests = [dest for dest, _, _ in fanout]
                expected_dests = sorted(d for d in range(n) if d != target)
                if sorted(dests) != expected_dests:
                    raise _Mismatch(
                        "issue-divergence",
                        f"sync fan-out went to {dests}, expected {expected_dests}",
                    )
                for (dest, _, _), wire_msg in fanout.items():
                    offset = _diff_at(canonical_json(wire_msg), model_wire)
                    if offset is not None:
                        raise _Mismatch(
                            "issue-divergence",
                            f"sync message differs from the model at byte {offset}",
                        )
                    in_flight.append((dest, wire_msg, model_msg))
                # Deliver a random prefix of the backlog while the round is open.
                while in_flight and rng.random() < 0.4:
                    deliver(rng.randrange(len(in_flight)))
            # Round ends: drain everything, then compare canonical bytes.
            while in_flight:
                deliver(rng.randrange(len(in_flight)))
            for replica in range(n):
                got = _exchange(
                    endpoints[replica], {"type": "Inspect"}, "InspectReply"
                )["state"]
                offset = _diff_at(got, models[replica].normalize())
                if offset is not None:
                    raise _Mismatch(
                        "inspect-divergence",
                        f"canonical bytes differ from the model at byte {offset}",
                    )
    except ProtocolViolation as exc:
        kind = exc.kind if isinstance(exc, _Mismatch) else "replica-error"
        report.failure = StressFailure(kind, round_no, replica, str(exc))
    return report
