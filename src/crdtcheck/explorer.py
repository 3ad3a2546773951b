"""Bounded exhaustive search over small replicated-system runs.

A run is a sequence of *events* applied to a global state holding n
replicas plus, per destination replica, the set of sync messages still
in flight to it:

- ``ClientEvent(slot, target, req)`` — the next client request.  Request
  slots are consumed strictly in order; slot ``i`` always goes to
  replica ``i mod n``, and issuing fuses the local apply with the
  broadcast, so one client event puts n-1 copies of the sync message in
  flight.
- ``DeliverEvent(dest, origin, counter)`` — remove one in-flight message
  (identified by its dot) from ``dest``'s channel and deliver it.

The default channel is *arbitrary*: any in-flight message may arrive
next, so reordering and arbitrary delay are both explored (messages are
never lost — every terminal state has empty channels).  The *causal*
channel only enables a delivery when the destination has already
delivered everything in the message's context snapshot.

Two searches share the same transition function:

- ``explore`` — breadth-first over *distinct* global states, deduplicated
  by a full-fidelity canonical key, with a path-count accumulator so the
  number of terminal schedules is still exact.  Invariants are checked
  once per distinct state; a violating state is recorded (breadth-first
  order makes the first recording a shortest counterexample) and its
  branch pruned.
- ``enumerate_traces`` — depth-first over *schedules*, no deduplication,
  children visited in sorted event order.  Its emission sequence is a
  pure function of the configuration, which is what the corpus generator
  needs, and its terminal tally doubles as an independent check that the
  deduplicating search merges states soundly.

With a single replica there are no messages, so the state graph is a
tree and the two searches coincide; ``explore`` uses the depth-first
walk there to keep memory flat.

State store of the breadth-first search (collapse compression, as in
Holzmann, *State compression in SPIN*, 1997):

- ``ReplicaState`` and ``SyncMessage`` each cache a 16-byte digest of
  their canonical form, so a global state's digest hashes the slot, n
  replica digests and the sorted message digests of each channel; a
  successor re-hashes only the replica and the message it created.
- A stored state is rebuilt from interned components: one shared
  object per distinct (replica index, replica digest) and per distinct
  channel.  The index is part of the key because the digest omits it.
- A delivery memo maps (destination, replica digest, message digest) to
  the interned successor replica, so each distinct delivery runs once.
  Only the breadth-first search uses it: ``step``, ``replay_schedule``
  and ``enumerate_traces`` call ``ReplicaState.deliver`` directly, so
  the depth-first walk stays an independent check of the store.

Checked invariants (reported by name):

- ``convergence``     terminal states must render byte-identical
                      canonical forms on every replica.
- ``buffer-liveness`` terminal states must have drained every pending
                      buffer.
- ``position-unique`` no two existent list elements at one replica may
                      share a position (checked at every state).
- ``position-range``  every position digit stays inside the base
                      (defensive; checked at every state).
- ``stuck``           a state with unconsumed slots must enable at least
                      one event (can only trip with a pinned op space).
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

from .errors import BadConfig, BudgetExceeded, NotEnabled
from .operations import (
    LIST,
    LIST_KINDS,
    RPQ,
    RPQ_KINDS,
    OperationRequest,
    SyncMessage,
    canonical_digest,
)
from .positions import BASE
from .replica import (
    BUG_ASSUME_CAUSAL,
    BUG_READD_ACCEPT,
    ReplicaState,
    fresh_replica,
)

CHANNEL_ARBITRARY = "arbitrary"
CHANNEL_CAUSAL = "causal"
CHANNELS = (CHANNEL_ARBITRARY, CHANNEL_CAUSAL)

# Only these flags change the *model* state machine; the rest of the
# bug catalog lives in the replica server implementation.
MODEL_BUG_FLAGS = frozenset({BUG_READD_ACCEPT, BUG_ASSUME_CAUSAL})

MAX_REPLICAS = 3
VIOLATION_CAP = 100

RPQ_ELEMENT = "e"
LIST_ATTRS = (10, 20)

# The priority-queue op space is fixed: five requests against one
# element, all of them valid at any replica state.
_RPQ_POOL = tuple(sorted(
    [
        OperationRequest("add", RPQ_ELEMENT, 10),
        OperationRequest("add", RPQ_ELEMENT, 20),
        OperationRequest("increase", RPQ_ELEMENT, -3),
        OperationRequest("increase", RPQ_ELEMENT, 4),
        OperationRequest("remove", RPQ_ELEMENT),
    ],
    key=lambda r: r.sort_key(),
))


@dataclass(frozen=True)
class ExplorationConfig:
    """Everything that pins down one search, minus resource budgets.

    ``pinned_ops`` replaces the generated op space with an explicit
    per-slot tuple of candidate requests (still filtered for validity at
    the target replica); None means the standard space.
    """

    data_type: str
    n: int
    q: int
    channel: str = CHANNEL_ARBITRARY
    bug_flags: frozenset = frozenset()
    pinned_ops: tuple | None = None
    state_cap: int | None = None

    def __post_init__(self):
        if self.data_type not in (RPQ, LIST):
            raise BadConfig(f"unknown data type {self.data_type!r}")
        if not 1 <= self.n <= MAX_REPLICAS:
            raise BadConfig(f"replica count must be 1..{MAX_REPLICAS}, got {self.n}")
        if self.q < 1:
            raise BadConfig(f"need at least one request slot, got {self.q}")
        if self.n > 1 and self.q < self.n:
            raise BadConfig(
                f"with {self.n} replicas the round-robin needs q >= {self.n}, got {self.q}"
            )
        if self.channel not in CHANNELS:
            raise BadConfig(f"unknown channel mode {self.channel!r}")
        bad = set(self.bug_flags) - MODEL_BUG_FLAGS
        if bad:
            raise BadConfig(
                f"flags {sorted(bad)} do not alter the model; "
                f"model-level flags are {sorted(MODEL_BUG_FLAGS)}"
            )
        if self.pinned_ops is not None:
            if len(self.pinned_ops) != self.q:
                raise BadConfig(
                    f"pinned op space has {len(self.pinned_ops)} slots, expected {self.q}"
                )
            kinds = RPQ_KINDS if self.data_type == RPQ else LIST_KINDS
            for i, pool in enumerate(self.pinned_ops):
                if not pool:
                    raise BadConfig(f"pinned slot {i} is empty")
                for req in pool:
                    if req.kind not in kinds:
                        raise BadConfig(
                            f"pinned slot {i}: kind {req.kind!r} not valid for {self.data_type}"
                        )
        if self.state_cap is not None and self.state_cap < 1:
            raise BadConfig(f"state cap must be positive, got {self.state_cap}")


def config_fingerprint(cfg: ExplorationConfig) -> str:
    """Hex digest over the semantic knobs of a configuration.

    Corpus files embed this so a replay against a differently-shaped
    system is rejected up front.  Resource budgets are excluded — they
    change how much gets explored, not what any schedule means.
    """
    if cfg.pinned_ops is None:
        space: object = "standard-v1"
    else:
        space = [[r.as_wire() for r in pool] for pool in cfg.pinned_ops]
    doc = {
        "base": BASE,
        "bugs": sorted(cfg.bug_flags),
        "channel": cfg.channel,
        "data_type": cfg.data_type,
        "n": cfg.n,
        "op_space": space,
        "q": cfg.q,
        # A constant of the v1 document: existing corpora keep their
        # fingerprints.
        "strategy": "standard",
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# -- events -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClientEvent:
    slot: int
    target: int
    req: OperationRequest


@dataclass(frozen=True, order=True, slots=True)
class DeliverEvent:
    # order=True sorts deliveries by (dest, origin, counter).
    dest: int
    origin: int
    counter: int


def event_wire(ev) -> list:
    if isinstance(ev, ClientEvent):
        return ["C", ev.slot, ev.req.as_wire(), ev.target]
    return ["D", ev.dest, ev.origin, ev.counter]


def event_from_wire(item) -> ClientEvent | DeliverEvent:
    """Inverse of ``event_wire``; raises ValueError on anything off-shape."""
    if not isinstance(item, (list, tuple)) or not item:
        raise ValueError("event must be a non-empty array")
    tag = item[0]
    if tag == "C":
        if len(item) != 4:
            raise ValueError("client event needs [\"C\", slot, request, target]")
        _, slot, req, target = item
        if not isinstance(slot, int) or not isinstance(target, int):
            raise ValueError("client event slot/target must be integers")
        if not isinstance(req, dict):
            raise ValueError("client event request must be an object")
        return ClientEvent(slot, target, OperationRequest.from_wire(req))
    if tag == "D":
        if len(item) != 4:
            raise ValueError("deliver event needs [\"D\", dest, origin, counter]")
        _, dest, origin, counter = item
        if not all(isinstance(x, int) for x in (dest, origin, counter)):
            raise ValueError("deliver event fields must be integers")
        return DeliverEvent(dest, origin, counter)
    raise ValueError(f"unknown event tag {tag!r}")


# -- global state -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GlobalState:
    replicas: tuple[ReplicaState, ...]
    channels: tuple[frozenset[SyncMessage], ...]  # indexed by destination
    next_slot: int

    def canonical(self) -> tuple:
        """The slot, each replica's digest and each channel's sorted
        message digests: equal iff the canonical keys are equal."""
        return (
            self.next_slot,
            tuple(r.digest() for r in self.replicas),
            tuple(tuple(sorted(m.digest() for m in ch)) for ch in self.channels),
        )

    def render(self) -> tuple[bytes, ...]:
        """Each replica's canonical bytes: a terminal state's oracle."""
        return tuple(r.normalize() for r in self.replicas)


def state_digest(gs: GlobalState) -> bytes:
    return canonical_digest(gs.canonical())


class _Store:
    """The intern tables and delivery memo of one breadth-first search
    (see "State store" in the module docstring)."""

    def __init__(self):
        # (index, digest): the digest omits the replica index.
        self._replicas: dict[tuple[int, bytes], ReplicaState] = {}
        self._channels: dict[frozenset, frozenset] = {}
        # (dest, replica digest, message digest) -> interned successor
        self._delivered: dict[tuple[int, bytes, bytes], ReplicaState] = {}

    def replica(self, index: int, rep: ReplicaState) -> ReplicaState:
        return self._replicas.setdefault((index, rep.digest()), rep)

    def deliver(self, dest: int, rep: ReplicaState, msg: SyncMessage) -> ReplicaState:
        key = (dest, rep.digest(), msg.digest())
        succ = self._delivered.get(key)
        if succ is None:
            succ = self._delivered[key] = self.replica(dest, rep.deliver(msg))
        return succ

    def intern(self, gs: GlobalState) -> GlobalState:
        return GlobalState(
            tuple(self.replica(i, r) for i, r in enumerate(gs.replicas)),
            tuple(self._channels.setdefault(ch, ch) for ch in gs.channels),
            gs.next_slot,
        )


def initial_state(cfg: ExplorationConfig) -> GlobalState:
    return GlobalState(
        replicas=tuple(
            fresh_replica(cfg.data_type, i, cfg.bug_flags)
            for i in range(cfg.n)
        ),
        channels=tuple(frozenset() for _ in range(cfg.n)),
        next_slot=0,
    )


def is_terminal(cfg: ExplorationConfig, gs: GlobalState) -> bool:
    return gs.next_slot >= cfg.q and all(not ch for ch in gs.channels)


def candidate_requests(
    cfg: ExplorationConfig, state: ReplicaState, slot: int
) -> list[OperationRequest]:
    """Valid client requests for this slot at the target replica, sorted."""
    if cfg.pinned_ops is not None:
        pool: list[OperationRequest] = sorted(
            cfg.pinned_ops[slot], key=lambda r: r.sort_key()
        )
    elif cfg.data_type == RPQ:
        pool = list(_RPQ_POOL)
    else:
        pool = _list_pool(state, slot)
    return [r for r in pool if state.request_error(r) is None]


def _list_pool(state: ReplicaState, slot: int) -> list[OperationRequest]:
    """The list op space at one replica: insert a fresh slot-numbered id
    after the head or any existent element, or update / remove / re-add
    any id this replica has a record of."""
    seen = sorted(state.elems)
    new_id = f"e{slot + 1}"
    pool = []
    for anchor in [None, *state.existent()]:
        for attr in LIST_ATTRS:
            pool.append(OperationRequest("insert", new_id, attr, anchor))
    for elem in seen:
        for attr in LIST_ATTRS:
            pool.append(OperationRequest("update", elem, attr))
        pool.append(OperationRequest("remove", elem))
        pool.append(OperationRequest("readd", elem))
    pool.sort(key=lambda r: r.sort_key())
    return pool


def _client_step(cfg: ExplorationConfig, gs: GlobalState, ev: ClientEvent) -> GlobalState:
    state, msg = gs.replicas[ev.target].issue(ev.req)
    replicas = list(gs.replicas)
    replicas[ev.target] = state
    channels = tuple(
        ch | {msg} if dest != ev.target else ch
        for dest, ch in enumerate(gs.channels)
    )
    return GlobalState(tuple(replicas), channels, gs.next_slot + 1)


def _deliver_step(
    gs: GlobalState, ev: DeliverEvent, msg: SyncMessage, store: _Store | None
) -> GlobalState:
    replicas = list(gs.replicas)
    rep = replicas[ev.dest]
    replicas[ev.dest] = rep.deliver(msg) if store is None else store.deliver(ev.dest, rep, msg)
    channels = list(gs.channels)
    channels[ev.dest] = channels[ev.dest] - {msg}
    return GlobalState(tuple(replicas), tuple(channels), gs.next_slot)


def _deliverable(cfg: ExplorationConfig, gs: GlobalState, dest: int, msg: SyncMessage) -> bool:
    if cfg.channel == CHANNEL_CAUSAL:
        rep = gs.replicas[dest]
        return all(rep.has_delivered(d) for d in msg.ctx.iter_dots())
    return True


def enabled_events(cfg: ExplorationConfig, gs: GlobalState) -> list:
    """All events enabled in ``gs``, in deterministic sorted order."""
    return [ev for ev, _succ in _successors(cfg, gs)]


def _successors(
    cfg: ExplorationConfig, gs: GlobalState, store: _Store | None = None
) -> list[tuple]:
    """(event, successor state) pairs in sorted event order: the one
    definition of which events are enabled.  Only the breadth-first
    search passes a ``store``, whose delivery memo replaces
    ``ReplicaState.deliver``; every other caller delivers directly."""
    out = []
    if gs.next_slot < cfg.q:
        slot = gs.next_slot
        target = slot % cfg.n
        for req in candidate_requests(cfg, gs.replicas[target], slot):
            ev = ClientEvent(slot, target, req)
            out.append((ev, _client_step(cfg, gs, ev)))
    delivers = sorted(
        (
            (DeliverEvent(dest, msg.origin, msg.op.dot.counter), msg)
            for dest in range(cfg.n)
            for msg in gs.channels[dest]
            if _deliverable(cfg, gs, dest, msg)
        ),
        key=lambda pair: pair[0],
    )
    out.extend((ev, _deliver_step(gs, ev, msg, store)) for ev, msg in delivers)
    return out


def step(cfg: ExplorationConfig, gs: GlobalState, ev) -> GlobalState:
    """Validated single transition; raises ``NotEnabled`` unless ``ev``
    is one of the events ``_successors`` enables in ``gs``."""
    for enabled, succ in _successors(cfg, gs):
        if enabled == ev:
            return succ
    raise NotEnabled(f"event not enabled: {ev!r}")


def replay_schedule(cfg: ExplorationConfig, schedule) -> GlobalState:
    """Run an explicit event sequence through the validated transition."""
    gs = initial_state(cfg)
    for ev in schedule:
        gs = step(cfg, gs, ev)
    return gs


def schedule_has_causal_inversion(cfg: ExplorationConfig, schedule) -> bool:
    """True if some delivery happens before one of its causal
    predecessors reached the same destination — the reordering a causal
    channel would have forbidden.  Raises ``NotEnabled`` if the schedule
    is not valid under ``cfg`` itself."""
    replay_schedule(cfg, schedule)
    try:
        replay_schedule(replace(cfg, channel=CHANNEL_CAUSAL), schedule)
    except NotEnabled:
        return True
    return False


# -- invariant checks ---------------------------------------------------


def state_violations(cfg: ExplorationConfig, gs: GlobalState) -> list[tuple[str, str]]:
    """Per-state invariants; returned as (name, detail) pairs."""
    out = []
    if cfg.data_type == LIST:
        for i, rep in enumerate(gs.replicas):
            poss = rep.existent_positions()
            if len(set(poss)) != len(poss):
                out.append(
                    ("position-unique", f"colliding positions at replica {i}")
                )
            if any(
                not 0 <= digit < BASE for p in poss for digit, _, _ in p
            ):
                out.append(("position-range", f"digit out of range at replica {i}"))
    return out


def terminal_violations(gs: GlobalState, oracle: tuple[bytes, ...]) -> list[tuple[str, str]]:
    """Invariants that only make sense once every message was delivered;
    ``oracle`` is ``gs.render()``."""
    out = []
    for i in range(1, len(oracle)):
        if oracle[i] != oracle[0]:
            out.append(
                (
                    "convergence",
                    f"replicas 0 and {i} render different canonical bytes",
                )
            )
            break
    for i, rep in enumerate(gs.replicas):
        if rep.pending:
            out.append(
                ("buffer-liveness", f"replica {i} still buffers {len(rep.pending)} op(s)")
            )
            break
    return out


# -- results ------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    invariant: str
    schedule: tuple  # events leading to the violating state
    detail: str = ""

    def as_json(self) -> dict:
        return {
            "detail": self.detail,
            "invariant": self.invariant,
            "schedule": [event_wire(ev) for ev in self.schedule],
        }


@dataclass(frozen=True)
class TraceRecord:
    """One complete schedule plus the terminal canonical bytes per replica."""

    schedule: tuple
    oracle: tuple[bytes, ...]


@dataclass
class ExplorationReport:
    fingerprint: str
    states_visited: int
    distinct_states: int
    terminal_traces: int
    violations: tuple[Violation, ...]
    violations_capped: bool
    exhaustive: bool
    wall_time_s: float
    oracle_multiset: dict | None = None  # filled only on request

    def as_json(self) -> dict:
        return {
            "distinct_states": self.distinct_states,
            "exhaustive": self.exhaustive,
            "fingerprint": self.fingerprint,
            "states_visited": self.states_visited,
            "terminal_traces": self.terminal_traces,
            "violations": [v.as_json() for v in self.violations],
            "violations_capped": self.violations_capped,
            "wall_time_s": round(self.wall_time_s, 3),
        }


class _ViolationLog:
    """Violations in discovery order, one per (invariant, state digest),
    at most ``VIOLATION_CAP`` of them.  ``schedule_to`` maps a digest to
    the events that reached the state; it runs only for a violation that
    gets recorded."""

    def __init__(self, schedule_to: Callable[[bytes], tuple]):
        self.found: list[Violation] = []
        self.capped = False
        self._shapes: set = set()
        self._schedule_to = schedule_to

    def note(self, name: str, detail: str, key: bytes) -> None:
        shape = (name, key)
        if shape in self._shapes:
            return
        if len(self.found) >= VIOLATION_CAP:
            self.capped = True
            return
        self._shapes.add(shape)
        self.found.append(Violation(name, self._schedule_to(key), detail))

    def check(
        self, cfg: ExplorationConfig, gs: GlobalState, oracle: tuple | None,
        key: bytes | None = None,
    ) -> bool:
        """Record every invariant ``gs`` breaks; True if it breaks any.
        ``oracle`` is ``gs.render()`` for a terminal state, else None.
        ``key`` is the digest of ``gs``, computed here if needed."""
        vs = state_violations(cfg, gs)
        if oracle is not None:
            vs += terminal_violations(gs, oracle)
        if vs and key is None:
            key = state_digest(gs)
        for name, detail in vs:
            self.note(name, detail, key)
        return bool(vs)


# -- depth-first walk ----------------------------------------------------


def enumerate_traces(
    cfg: ExplorationConfig,
    emit: Callable[[TraceRecord], None] | None = None,
    *,
    check: bool = False,
    collect_oracles: bool = False,
) -> ExplorationReport:
    """Walk every schedule depth-first, children in sorted event order.

    No deduplication happens, so ``terminal_traces`` counts schedules
    exactly, every walked node counts as a distinct state, and the
    ``emit`` callback sees the schedules in an order that is a pure
    function of the configuration.  With ``check`` set, the same
    invariants as the deduplicating search run at every node, violating
    non-terminal nodes pruning their subtree the same way.  The walk
    stops early, with ``exhaustive`` false, once ``cfg.state_cap``
    nodes are visited.
    """
    t0 = time.monotonic()
    visited = 1
    leaves = 0
    budget_hit = False
    oracle_ms: dict | None = {} if collect_oracles else None
    path: list = []
    log = _ViolationLog(lambda _key: tuple(path))

    def walk(gs: GlobalState) -> None:
        nonlocal visited, leaves, budget_hit
        terminal = is_terminal(cfg, gs)
        oracle = gs.render() if terminal else None
        if check and log.check(cfg, gs, oracle) and not terminal:
            return  # prune below a broken state
        if terminal:
            leaves += 1
            if emit is not None:
                emit(TraceRecord(tuple(path), oracle))
            if oracle_ms is not None:
                oracle_ms[oracle] = oracle_ms.get(oracle, 0) + 1
            return
        succs = _successors(cfg, gs)
        if not succs:
            if check:
                log.note("stuck", "no enabled events before the run completed",
                         state_digest(gs))
            return
        for ev, succ in succs:
            if cfg.state_cap is not None and visited >= cfg.state_cap:
                budget_hit = True
                return
            visited += 1
            path.append(ev)
            walk(succ)
            path.pop()
            if budget_hit:
                return

    walk(initial_state(cfg))
    return ExplorationReport(
        fingerprint=config_fingerprint(cfg),
        states_visited=visited,
        distinct_states=visited,
        terminal_traces=leaves,
        violations=tuple(sorted(log.found, key=lambda v: len(v.schedule))),
        violations_capped=log.capped,
        exhaustive=not budget_hit,
        wall_time_s=time.monotonic() - t0,
        oracle_multiset=oracle_ms,
    )


# -- deduplicating search -------------------------------------------------


def explore(cfg: ExplorationConfig, *, collect_oracles: bool = False) -> ExplorationReport:
    """Search the full state space and check every invariant.

    Returns a report with exact distinct-state and terminal-schedule
    counts.  Raises ``BudgetExceeded`` (with the partial report attached)
    when ``cfg.state_cap`` distinct states is not enough to finish.
    """
    if cfg.n == 1:
        # One replica means no messages: the state graph is a tree, every
        # walked node is a distinct state, and the depth-first walk needs
        # only O(depth) memory where the frontier of a breadth-first pass
        # would hold a whole level of full states.
        report = enumerate_traces(cfg, check=True, collect_oracles=collect_oracles)
    else:
        report = _explore_bfs(cfg, collect_oracles)
    if not report.exhaustive:
        raise BudgetExceeded(
            f"state cap {cfg.state_cap} exhausted after "
            f"{report.distinct_states} distinct states",
            report,
        )
    return report


def _explore_bfs(cfg: ExplorationConfig, collect_oracles: bool) -> ExplorationReport:
    """Breadth-first over distinct states, one level at a time.

    Every event consumes a slot or delivers a message, so all paths to a
    state have the same length: deduplicating within a level is complete,
    and every terminal state sits in the last level.  Stops early, with
    ``exhaustive`` false, once more than ``cfg.state_cap`` distinct
    states are found.
    """
    t0 = time.monotonic()
    root = initial_state(cfg)
    root_key = state_digest(root)
    preds: dict[bytes, tuple | None] = {root_key: None}

    def schedule_to(key: bytes) -> tuple:
        events = []
        entry = preds[key]
        while entry is not None:
            ev, parent = entry
            events.append(ev)
            entry = preds[parent]
        return tuple(reversed(events))

    log = _ViolationLog(schedule_to)
    store = _Store()
    shared_events: dict = {}  # one object per distinct event in ``preds``
    visited = 1
    distinct = 1
    # (level entry, oracle or None) per terminal state, in discovery order
    terminals: list[tuple[list, tuple | None]] = []

    def search() -> bool:
        """Expand level by level; False if the state cap stops it."""
        nonlocal visited, distinct
        # key -> [state to expand (None if terminal or broken), path count]
        frontier = {root_key: [None if log.check(cfg, root, None, root_key) else root, 1]}
        while frontier:
            level: dict[bytes, list] = {}
            for key, (state, paths) in frontier.items():
                if state is None:
                    continue
                succs = _successors(cfg, state, store)
                if not succs:
                    log.note("stuck", "no enabled events before the run completed", key)
                    continue
                for ev, succ in succs:
                    visited += 1
                    skey = state_digest(succ)
                    entry = level.get(skey)
                    if entry is not None:
                        entry[1] += paths
                        continue
                    distinct += 1
                    preds[skey] = (shared_events.setdefault(ev, ev), key)
                    terminal = is_terminal(cfg, succ)
                    oracle = succ.render() if terminal else None
                    broken = log.check(cfg, succ, oracle, skey)
                    entry = level[skey] = [
                        None if terminal or broken else store.intern(succ), paths
                    ]
                    if terminal:
                        terminals.append((entry, oracle if collect_oracles else None))
                    if cfg.state_cap is not None and distinct > cfg.state_cap:
                        return False
            frontier = level
        return True

    exhaustive = search()
    oracle_ms = None
    if collect_oracles:
        oracle_ms = {}
        for (_, paths), oracle in terminals:
            oracle_ms[oracle] = oracle_ms.get(oracle, 0) + paths
    return ExplorationReport(
        fingerprint=config_fingerprint(cfg),
        states_visited=visited,
        distinct_states=distinct,
        terminal_traces=sum(paths for (_, paths), _ in terminals),
        violations=tuple(log.found),
        violations_capped=log.capped,
        exhaustive=exhaustive,
        wall_time_s=time.monotonic() - t0,
        oracle_multiset=oracle_ms,
    )
