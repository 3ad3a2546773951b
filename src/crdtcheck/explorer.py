"""Bounded exhaustive search over small replicated-system runs.

A run is a sequence of *events* applied to a global state, the tuple
``(next_slot, *replicas, *channels)``: n replica states, then per
destination replica the frozenset of sync messages in flight to it:

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
walk there to keep memory flat, split over two processes when it is
large.

Splitting the depth-first walk (the parallel state-space search of Stern
and Dill, *Parallelizing the Murphi verifier*, CAV 1997):

- Only a walk with neither ``emit`` nor a state cap splits: ``explore``
  at n=1 and the check-only walks.  ``gen``'s emission order and a capped
  walk's stopping point belong to one process.
- The walk is cut at the shallowest depth holding at least
  ``_SPLIT_UNITS`` nodes (16 and 25 units at depth 2 for list and rpq
  n=1).  The nodes above the cut are checked one at a time; each node at
  the cut is a *unit*, walked with its whole subtree.  The first unit is
  walked first and sizes the rest: if its node count times the number of
  other units reaches ``_SPLIT_MIN_NODES``, ``os.fork`` exists, only one
  thread runs and a second CPU is free, a forked child walks every
  other remaining unit while this process walks the rest.
- The split walk only adds up counts: nodes, leaves and oracle counts.
  The child sends its share's counts back through a pipe with
  ``pickle``.  It gives up as soon as anything records a violation
  (``stuck`` included): a node above the cut, the first unit, or a unit
  of either process's share, which stops at the end of that unit.
  ``enumerate_traces`` then walks the whole tree again in one process,
  and that walk's report is the report, so the violations, their order
  and ``VIOLATION_CAP`` are the one-process walk's by construction.  At
  n=1 no message is delivered, so no model bug flag acts and the correct
  model breaks no invariant: ``explore`` walks twice only under a broken
  model.
- The child is forked, not spawned, so it walks the caller's model as
  it is, with any patched method or installed tracer; a fork also takes
  milliseconds where starting an interpreter takes a quarter second.
  What the child does is lost to the caller except its counts: tracer
  spans and ``ru_maxrss`` count the calling process's share only.  The
  child ends with ``os._exit``; an exception it raises comes back in
  place of its counts and is raised again in the caller.  The caller
  reaps the child on every way out, killing it first when anything
  (its own share, an interrupt) stops it before the counts are read.

State store of the breadth-first search (integer handles over the
collapse compression of Holzmann, *State compression in SPIN*, 1997):

- Each distinct (replica index, replica digest), sync message and
  channel gets a small int.  The index is part of the replica key
  because the digest omits it.  A state is the global-state tuple with
  ids for components, ``(slot, *replica ids, *channel ids)``, and each
  level is deduplicated on it.
- Every component move is memoized on ids and runs once: the client
  requests and ``issue`` per (replica id, slot), ``deliver`` per
  (replica id, message id), a message joining a channel per (channel
  id, message id) and the list position check per replica id.  The
  deliveries out of a channel are memoized per (dest, channel id), each
  with the id of the channel that message leaves behind, so a delivery
  edge costs one memo call (``deliver``).
- A terminal state is rendered through a memo of its own, keyed on the
  replica digests the store interned its replicas under: replicas with
  one digest are normalized once.  That is sound because ``normalize``
  omits the replica index and equal digests mean equal canonical keys,
  so equal text; the depth-first walk renders every replica, so it
  still checks the shortcut.  A rendering is text, compared and stored
  as text; only the harness encodes it, to report a difference's byte
  offset.
- A new distinct state costs id work only.  It is terminal when its
  ids say so (slot q and every channel id 0: the root's empty channel
  is interned first), its replicas' position checks are read only once
  some replica id has failed one, and it is resolved to the component
  tuple its ids stand for only if it is terminal or violating.  Only a
  violating state is digested, by ``state_digest`` of that tuple, so
  violations are keyed as without the store; a stuck state, which needs
  a pinned op space, digests its own.
- A level entry holds the state's path count, the event that first
  discovered it and a link to its parent's entry.  A counterexample is
  read back along those links, so it is the breadth-first shortest one.
  A terminal or broken state keeps only its path count.  What stays
  alive is the store, the level being expanded, the level being built
  and the entries on the first-discovery paths to them: an entry that is
  no live entry's parent is garbage once its level has been expanded.
- A replica the store interns has its ``applied`` context swapped for
  the equal object the store already holds
  (``ReplicaState.share_applied``, keyed on ``canonical()``), so the
  store keeps one context object per value, not one per replica state:
  hash-consing, as in Filliâtre and Conchon, *Type-safe modular
  hash-consing*, 2006.
- ``_successors`` is the only code that builds a successor state: it
  decides which events are enabled and what each does to the flat
  tuple (a client event moves its target replica and adds the message
  to every other channel; a delivery moves one replica and removes the
  message from its channel).  A store supplies only the component
  moves: ``issued``, ``deliveries``, ``ready``, ``deliver`` and
  ``add``.  ``_Direct`` computes each move afresh, by
  ``ReplicaState.issue``/``deliver``; ``step``, ``replay_schedule`` and
  ``enumerate_traces`` use it.  The breadth-first search passes its
  ``_IdStore``, which on a memo miss calls the same ``_Direct`` move
  and interns the result: the store adds only memos and interning, and
  the depth-first walk, which uses neither, checks them.

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
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass

from .dots import CausalContext
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
    Existence,
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
    """Everything that pins down one search, plus its resource budget.

    ``pinned_ops`` replaces the generated op space with an explicit
    per-slot tuple of candidate requests (still filtered for validity at
    the target replica); None means the standard space.  ``state_cap``
    stops a search after that many states; ``config_fingerprint`` leaves
    it out.
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
        cap = 1 if self.state_cap is None else self.state_cap
        for name, value in (("n", self.n), ("q", self.q), ("state_cap", cap)):
            if type(value) is not int:  # not a bool: True would be n=1 under another fingerprint
                raise BadConfig(f"{name} must be an integer, got {value!r}")
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
        if not isinstance(self.bug_flags, frozenset):
            raise BadConfig(f"bug_flags must be a frozenset of flag names, got {self.bug_flags!r}")
        bad = self.bug_flags - MODEL_BUG_FLAGS
        if bad:
            raise BadConfig(
                f"bug_flags {sorted(bad, key=str)} do not alter the model; "
                f"model-level flags are {sorted(MODEL_BUG_FLAGS)}"
            )
        if self.pinned_ops is not None:
            if not isinstance(self.pinned_ops, tuple) or len(self.pinned_ops) != self.q:
                raise BadConfig(
                    f"pinned_ops must be a tuple of {self.q} slots, got {self.pinned_ops!r}"
                )
            kinds = RPQ_KINDS if self.data_type == RPQ else LIST_KINDS
            for i, pool in enumerate(self.pinned_ops):
                if not isinstance(pool, tuple) or not pool:
                    raise BadConfig(f"pinned_ops slot {i} must be a non-empty tuple, got {pool!r}")
                for req in pool:
                    if not isinstance(req, OperationRequest) or req.kind not in kinds:
                        raise BadConfig(
                            f"pinned_ops slot {i}: {req!r} is not a {self.data_type} request"
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


@dataclass(frozen=True, slots=True)
class DeliverEvent:
    dest: int
    origin: int
    counter: int


def event_wire(ev) -> list:
    if isinstance(ev, ClientEvent):
        return ["C", ev.slot, ev.req.as_wire(), ev.target]
    return ["D", ev.dest, ev.origin, ev.counter]


def event_from_wire(item) -> ClientEvent | DeliverEvent:
    """Inverse of ``event_wire``; raises ValueError on anything off-shape.
    Integers must be exactly ``int``: JSON true and false decode to bools,
    an int subclass."""
    if not isinstance(item, (list, tuple)) or not item:
        raise ValueError("event must be a non-empty array")
    tag = item[0]
    if tag == "C":
        if len(item) != 4:
            raise ValueError("client event needs [\"C\", slot, request, target]")
        _, slot, req, target = item
        if type(slot) is not int or type(target) is not int:
            raise ValueError("client event slot/target must be integers")
        if not isinstance(req, dict):
            raise ValueError("client event request must be an object")
        kind, elem, arg, anchor = map(req.get, ("kind", "id", "arg", "anchor"))
        if not isinstance(kind, str) or not isinstance(elem, str):
            raise ValueError("client event request kind and id must be strings")
        if not (arg is None or type(arg) is int) or not (anchor is None or isinstance(anchor, str)):
            raise ValueError("client event request arg must be an int or null, anchor a str or null")
        return ClientEvent(slot, target, OperationRequest(kind, elem, arg, anchor))
    if tag == "D":
        if len(item) != 4:
            raise ValueError("deliver event needs [\"D\", dest, origin, counter]")
        _, dest, origin, counter = item
        if not all(type(x) is int for x in (dest, origin, counter)):
            raise ValueError("deliver event fields must be integers")
        return DeliverEvent(dest, origin, counter)
    raise ValueError(f"unknown event tag {tag!r}")


# -- global state -------------------------------------------------------


def render(gs: tuple) -> tuple[str, ...]:
    """Each replica's canonical text: a terminal state's oracle."""
    return tuple(map(ReplicaState.normalize, gs[1:len(gs) // 2 + 1]))


def state_digest(gs: tuple) -> bytes:
    """Digest of the slot, each replica's digest and each channel's
    sorted message digests: equal iff the canonical keys are equal."""
    n = len(gs) // 2
    return canonical_digest((
        gs[0],
        tuple(map(ReplicaState.digest, gs[1:n + 1])),
        tuple(tuple(sorted(map(SyncMessage.digest, ch))) for ch in gs[n + 1:]),
    ))


def initial_state(cfg: ExplorationConfig) -> tuple:
    replicas = [fresh_replica(cfg.data_type, i, cfg.bug_flags) for i in range(cfg.n)]
    return (0, *replicas, *[frozenset()] * cfg.n)


def is_terminal(cfg: ExplorationConfig, gs: tuple) -> bool:
    return gs[0] >= cfg.q and not any(gs[cfg.n + 1:])


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
    existent = (e for e, o in state.elems.items() if o.view().existence is Existence.EXISTENT)
    for anchor in [None, *existent]:
        for attr in LIST_ATTRS:
            pool.append(OperationRequest("insert", new_id, attr, anchor))
    for elem in seen:
        for attr in LIST_ATTRS:
            pool.append(OperationRequest("update", elem, attr))
        pool.append(OperationRequest("remove", elem))
        pool.append(OperationRequest("readd", elem))
    pool.sort(key=lambda r: r.sort_key())
    return pool


def _dot_order(msg: SyncMessage) -> tuple[int, int]:
    return (msg.origin, msg.op.dot.counter)


def _intern(ids: dict, items: list, key, item) -> int:
    """The id of ``key``, appending ``item`` to ``items`` if it is new."""
    i = ids.setdefault(key, len(items))
    if i == len(items):
        items.append(item)
    return i


class _Direct:
    """Component moves on the replica states and message sets themselves,
    by ``ReplicaState.issue``/``deliver``, computed afresh on every call:
    the store of ``step``, ``replay_schedule`` and the depth-first walk,
    which shares no memo with ``_IdStore``."""

    @staticmethod
    def issued(cfg: ExplorationConfig, rep: ReplicaState, slot: int, target: int) -> list:
        return [
            (ClientEvent(slot, target, req), *rep.issue(req))
            for req in candidate_requests(cfg, rep, slot)
        ]

    @staticmethod
    def deliveries(dest: int, channel: frozenset[SyncMessage]) -> list:
        """(delivery event, message, the channel without it) for each
        message in flight to ``dest``, in (origin, counter) order."""
        return [
            (DeliverEvent(dest, *_dot_order(msg)), msg, channel - {msg})
            for msg in sorted(channel, key=_dot_order)
        ]

    @staticmethod
    def ready(rep: ReplicaState, msg: SyncMessage) -> bool:
        """A causal channel delivers ``msg`` only once ``rep`` has every
        dot of its context snapshot."""
        return all(rep.has_delivered(d) for d in msg.ctx.iter_dots())

    @staticmethod
    def deliver(dest: int, rep: ReplicaState, msg: SyncMessage) -> ReplicaState:
        return rep.deliver(msg)

    @staticmethod
    def add(channel: frozenset[SyncMessage], msg: SyncMessage) -> frozenset[SyncMessage]:
        return channel | {msg}


class _IdStore:
    """The integer handles and move memos of one breadth-first search
    (see "State store" in the module docstring): ``_Direct``'s moves on
    ids, each computed by ``_Direct`` once and interned."""

    def __init__(self, cfg: ExplorationConfig):
        self.cfg = cfg
        # id -> component, and component key -> id; the replica digest
        # omits the index
        self.replicas: list[ReplicaState] = []
        self.digests: list[bytes] = []  # per replica id
        self.messages: list[SyncMessage] = []
        self.channels: list[frozenset[SyncMessage]] = []
        self._replica_ids: dict[tuple[int, bytes], int] = {}
        self._message_ids: dict[bytes, int] = {}
        self._channel_ids: dict[frozenset[SyncMessage], int] = {}
        # per replica id: its position-check violations, if any
        self.flagged: dict[int, list[tuple[str, str]]] = {}
        # one applied context per value, shared by the stored replicas
        self._contexts: dict[tuple, CausalContext] = {}
        # move memos, keyed on ids; a replica id fixes its index
        self._issued: dict[tuple[int, int], list] = {}  # (replica, slot)
        self._delivered: dict[tuple[int, int], int] = {}  # (replica, message)
        self._added: dict[tuple[int, int], int] = {}  # (channel, message)
        self._deliveries: dict[tuple[int, int], list] = {}  # (dest, channel)

    def root(self) -> tuple:
        gs = initial_state(self.cfg)
        return (gs[0], *map(self._replica, range(self.cfg.n), gs[1:self.cfg.n + 1]),
                *map(self._channel, gs[self.cfg.n + 1:]))

    def _replica(self, index: int, rep: ReplicaState) -> int:
        key = (index, rep.digest())
        rid = self._replica_ids.get(key)
        if rid is None:
            rid = self._replica_ids[key] = len(self.replicas)
            rep.share_applied(self._contexts)
            self.replicas.append(rep)
            self.digests.append(key[1])
            vs = replica_violations(self.cfg, index, rep)
            if vs:
                self.flagged[rid] = vs
        return rid

    def _message(self, msg: SyncMessage) -> int:
        return _intern(self._message_ids, self.messages, msg.digest(), msg)

    def _channel(self, msgs: frozenset[SyncMessage]) -> int:
        return _intern(self._channel_ids, self.channels, msgs, msgs)

    # -- the moves ``_successors`` asks for ---------------------------

    def issued(self, cfg: ExplorationConfig, rid: int, slot: int, target: int) -> list:
        got = self._issued.get((rid, slot))
        if got is None:
            got = self._issued[rid, slot] = [
                (ev, self._replica(target, after), self._message(msg))
                for ev, after, msg in _Direct.issued(cfg, self.replicas[rid], slot, target)
            ]
        return got

    def deliveries(self, dest: int, cid: int) -> list:
        got = self._deliveries.get((dest, cid))
        if got is None:
            got = self._deliveries[dest, cid] = [
                (ev, self._message(msg), self._channel(rest))
                for ev, msg, rest in _Direct.deliveries(dest, self.channels[cid])
            ]
        return got

    def ready(self, rid: int, mid: int) -> bool:
        return _Direct.ready(self.replicas[rid], self.messages[mid])

    def deliver(self, dest: int, rid: int, mid: int) -> int:
        got = self._delivered.get((rid, mid))
        if got is None:
            rep = _Direct.deliver(dest, self.replicas[rid], self.messages[mid])
            got = self._delivered[rid, mid] = self._replica(dest, rep)
        return got

    def add(self, cid: int, mid: int) -> int:
        got = self._added.get((cid, mid))
        if got is None:
            msgs = _Direct.add(self.channels[cid], self.messages[mid])
            got = self._added[cid, mid] = self._channel(msgs)
        return got

    # -- what the search reads off a state ----------------------------

    def resolve(self, ids: tuple) -> tuple:
        """The global state these ids stand for."""
        n = self.cfg.n
        return (ids[0], *map(self.replicas.__getitem__, ids[1:n + 1]),
                *map(self.channels.__getitem__, ids[n + 1:]))

    def violations(self, ids: tuple) -> list[tuple[str, str]]:
        """``state_violations`` of the state, from the check each replica
        id got when it was interned."""
        return [v for r in ids[1:self.cfg.n + 1] for v in self.flagged.get(r, ())]

    def render(self, ids: tuple) -> tuple[str, ...]:
        """``render`` of the state, normalizing one replica per distinct
        digest (see "State store" in the module docstring)."""
        texts: dict[bytes, str] = {}
        out = []
        for r in ids[1:self.cfg.n + 1]:
            text = texts.get(self.digests[r])
            if text is None:
                text = texts[self.digests[r]] = self.replicas[r].normalize()
            out.append(text)
        return tuple(out)


def _successors(cfg: ExplorationConfig, gs: tuple, store=_Direct) -> list[tuple]:
    """(event, successor state) pairs, client events first, then the
    deliveries in (dest, origin, counter) order: the one definition of
    which events are enabled and of what each does to the global state.
    ``store`` supplies the component moves: ``_Direct`` moves the
    replicas and channels of ``gs`` themselves; the breadth-first search
    passes its ``_IdStore`` and an id tuple.  A successor is a plain
    tuple of the same layout as ``gs``."""
    n = cfg.n
    out = []
    slot = gs[0]
    if slot < cfg.q:
        target = slot % n
        others = [1 + n + dest for dest in range(n) if dest != target]
        for ev, rep, msg in store.issued(cfg, gs[1 + target], slot, target):
            succ = list(gs)
            succ[0] = slot + 1
            succ[1 + target] = rep
            for c in others:
                succ[c] = store.add(gs[c], msg)
            out.append((ev, tuple(succ)))
    causal = cfg.channel == CHANNEL_CAUSAL
    for dest in range(n):
        r, c = 1 + dest, 1 + n + dest
        for ev, msg, rest in store.deliveries(dest, gs[c]):
            if not causal or store.ready(gs[r], msg):
                succ = list(gs)
                succ[r] = store.deliver(dest, gs[r], msg)
                succ[c] = rest
                out.append((ev, tuple(succ)))
    return out


def step(cfg: ExplorationConfig, gs: tuple, ev) -> tuple:
    """Validated single transition; raises ``NotEnabled`` unless ``ev``
    is one of the events ``_successors`` enables in ``gs``."""
    for enabled, succ in _successors(cfg, gs):
        if enabled == ev:
            return succ
    raise NotEnabled(f"event not enabled: {ev!r}")


def replay_schedule(cfg: ExplorationConfig, schedule) -> tuple:
    """Run an explicit event sequence through the validated transition."""
    gs = initial_state(cfg)
    for ev in schedule:
        gs = step(cfg, gs, ev)
    return gs


# -- invariant checks ---------------------------------------------------


def replica_violations(
    cfg: ExplorationConfig, index: int, rep: ReplicaState
) -> list[tuple[str, str]]:
    """The per-state invariants of the replica at ``index``."""
    out = []
    if cfg.data_type == LIST:
        poss = [o.pos for o in rep.elems.values() if o.view().existence is Existence.EXISTENT]
        if len(set(poss)) != len(poss):
            out.append(("position-unique", f"colliding positions at replica {index}"))
        if any(not 0 <= digit < BASE for p in poss for digit, _, _ in p):
            out.append(("position-range", f"digit out of range at replica {index}"))
    return out


def state_violations(cfg: ExplorationConfig, gs: tuple) -> list[tuple[str, str]]:
    """Per-state invariants; returned as (name, detail) pairs."""
    return [v for i in range(cfg.n) for v in replica_violations(cfg, i, gs[1 + i])]


def terminal_violations(gs: tuple, oracle: tuple[str, ...]) -> list[tuple[str, str]]:
    """Invariants that only make sense once every message was delivered;
    ``oracle`` is ``render(gs)``."""
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
    for i, rep in enumerate(gs[1:len(oracle) + 1]):
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


@dataclass
class ExplorationReport:
    fingerprint: str
    states_visited: int
    distinct_states: int
    terminal_traces: int
    violations: tuple[Violation, ...]
    violations_capped: bool
    exhaustive: bool
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
        }


class _ViolationLog:
    """Violations, one per (invariant, state digest), at most
    ``VIOLATION_CAP`` of them, and the report of the walk that found
    them.  ``schedule_of`` maps the walk's handle on a state (``at``) to
    the events that reached the state; it runs only for a violation that
    gets recorded."""

    def __init__(self, cfg: ExplorationConfig, schedule_of: Callable[[object], tuple]):
        self.cfg = cfg
        # (invariant, schedule, detail) in discovery order
        self.found: list[tuple[str, tuple, str]] = []
        self.capped = False
        self._shapes: set = set()
        self._schedule_of = schedule_of

    def record(self, vs: list[tuple[str, str]], key: bytes | None, at: object = None) -> bool:
        """Note every (name, detail) in ``vs`` for the state ``at`` that
        digests to ``key`` (None only when ``vs`` is empty); True if there
        are any."""
        for name, detail in vs:
            shape = (name, key)
            if shape in self._shapes:
                continue
            if len(self.found) >= VIOLATION_CAP:
                self.capped = True
                continue
            self._shapes.add(shape)
            self.found.append((name, self._schedule_of(at), detail))
        return bool(vs)

    def stuck(self, gs: tuple, at: object = None) -> None:
        """Record that ``gs``, not terminal, enables no event."""
        self.record([("stuck", "no enabled events before the run completed")],
                    state_digest(gs), at)

    def report(self, visited: int, distinct: int, traces: int, exhaustive: bool,
               oracle_ms: dict | None) -> ExplorationReport:
        """The walk's report; violations shortest schedule first, in
        discovery order among equals."""
        found = sorted(self.found, key=lambda v: len(v[1]))
        return ExplorationReport(
            fingerprint=config_fingerprint(self.cfg),
            states_visited=visited,
            distinct_states=distinct,
            terminal_traces=traces,
            violations=tuple(Violation(*v) for v in found),
            violations_capped=self.capped,
            exhaustive=exhaustive,
            oracle_multiset=oracle_ms,
        )


# -- depth-first walk ----------------------------------------------------

# See "Splitting the depth-first walk" in the module docstring.
# _SPLIT_MIN_NODES, compared with the probe's estimate of the walk, is
# set from the crossover measured in BENCH_22.json ("split_crossover":
# split forced against one process, alternating pairs on a 2-CPU host).
# Walks estimated at up to 744 nodes (rpq n=1 q <= 4) were no faster
# split, with or without 100 MiB of other objects in the process; from
# 1,584 up (a pinned rpq q=5 walk, list n=1 q=4, rpq n=1 q=5) the split
# had the lower median in both, winning 7 to 11 of 11 pairs.  Between
# them the winner depends on the size of the process a fork copies.
_SPLIT_UNITS = 16
_SPLIT_MIN_NODES = 1_500


class _Walk:
    """A depth-first walk: how many nodes and leaves it walked, what it
    found (``log``) and, when asked, its terminal oracle counts.
    Schedules are read off ``path``, the events from the node the walk
    started at."""

    def __init__(self, cfg: ExplorationConfig, emit, check: bool, collect_oracles: bool):
        self.cfg = cfg
        self.emit = emit
        self.check = check
        self.visited = 0
        self.leaves = 0
        self.budget_hit = False
        self.oracles: dict | None = {} if collect_oracles else None
        self.path: list = []
        self.log = _ViolationLog(cfg, lambda _at: tuple(self.path))

    def node(self, gs: tuple) -> list:
        """Count and check the node ``path`` leads to, in state ``gs``;
        the (event, successor) pairs to walk below it, none if it is a
        leaf or pruned."""
        cfg = self.cfg
        self.visited += 1
        terminal = is_terminal(cfg, gs)
        oracle = render(gs) if terminal else None
        if self.check:
            vs = state_violations(cfg, gs)
            if terminal:
                vs += terminal_violations(gs, oracle)
            if self.log.record(vs, state_digest(gs) if vs else None) and not terminal:
                return []  # prune below a broken state
        if terminal:
            self.leaves += 1
            if self.emit is not None:
                self.emit(tuple(self.path), oracle)
            if self.oracles is not None:
                self.oracles[oracle] = self.oracles.get(oracle, 0) + 1
            return []
        succs = _successors(cfg, gs)
        if not succs and self.check:
            self.log.stuck(gs)
        return succs

    def below(self, succs: list) -> None:
        """Walk the subtree of every successor in ``succs`` of the node
        ``path`` leads to, until the state cap stops the walk."""
        for ev, succ in succs:
            if self.visited == self.cfg.state_cap:
                self.budget_hit = True
                return
            self.path.append(ev)
            self.below(self.node(succ))
            self.path.pop()
            if self.budget_hit:
                return


def enumerate_traces(
    cfg: ExplorationConfig,
    emit: Callable[[tuple, tuple[str, ...]], None] | None = None,
    *,
    check: bool = False,
    collect_oracles: bool = False,
) -> ExplorationReport:
    """Walk every schedule depth-first, children in sorted event order.

    No deduplication happens, so ``terminal_traces`` counts schedules
    exactly, every walked node counts as a distinct state, and the
    ``emit`` callback gets each schedule with its oracle (``render`` of
    its terminal state), in an order that is a pure function of the
    configuration.  With ``check`` set, the same invariants as the
    deduplicating search run at every node, violating non-terminal nodes
    pruning their subtree the same way.  The walk stops early, with
    ``exhaustive`` false, before it would visit node
    ``cfg.state_cap + 1``.  Without ``emit`` or a state cap, a large walk
    is split with a child process (see "Splitting the depth-first walk"
    in the module docstring); a split walk that meets a violation is
    walked again in one process, whose report is the report.
    """
    walk = None
    if emit is None and cfg.state_cap is None:
        walk = _split_walk(cfg, check, collect_oracles)
    if walk is None:
        walk = _Walk(cfg, emit, check, collect_oracles)
        walk.below(walk.node(initial_state(cfg)))
    return walk.log.report(walk.visited, walk.visited, walk.leaves, not walk.budget_hit,
                           walk.oracles)


def _split_walk(cfg: ExplorationConfig, check: bool, collect_oracles: bool) -> _Walk | None:
    """``enumerate_traces`` without ``emit`` or a state cap: a walk that
    counted the nodes above the cut and the units below it, the child's
    share added in; None once any of them records a violation, whose
    schedule is never read."""

    def counts(walk: _Walk, units: list) -> tuple | None:
        """(nodes, leaves, oracle counts) of ``walk`` once it has walked
        each unit with its subtree; None, stopping at the end of the
        unit, once the walk has recorded a violation."""
        for gs in units:
            if walk.log.found:
                break
            walk.below(walk.node(gs))
        return None if walk.log.found else (walk.visited, walk.leaves, walk.oracles)

    walk = _Walk(cfg, None, check, collect_oracles)
    level = [initial_state(cfg)]
    while 0 < len(level) < _SPLIT_UNITS:
        level = [succ for gs in level for _, succ in walk.node(gs)]
    # the first unit is walked here, and sizes the others
    above = walk.visited
    probe, rest = level[:1], level[1:]
    if counts(walk, probe) is None:
        return None
    if rest and (walk.visited - above) * len(rest) >= _SPLIT_MIN_NODES and _can_fork():
        theirs, mine = _fork_beside(
            lambda: counts(_Walk(cfg, None, check, collect_oracles), rest[::2]),
            lambda: counts(walk, rest[1::2]),
        )
    else:  # nothing forked: the child's share is empty
        theirs, mine = (0, 0, {}), counts(walk, rest)
    if theirs is None or mine is None:
        return None
    nodes, leaves, oracles = theirs
    walk.visited += nodes
    walk.leaves += leaves
    if collect_oracles:
        for oracle, count in oracles.items():
            walk.oracles[oracle] = walk.oracles.get(oracle, 0) + count
    return walk


def _can_fork() -> bool:
    """Whether a forked child can walk beside this process: ``os.fork``
    exists, no other thread could hold a lock the child would inherit
    held, and a second CPU is there to run it."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return hasattr(os, "fork") and threading.active_count() == 1 and cpus >= 2


def _fork_beside(theirs: Callable[[], object], mine: Callable[[], object]) -> tuple:
    """``(theirs(), mine())``, ``theirs`` run in a forked child while this
    process runs ``mine``.  What ``theirs`` returns or raises comes back
    pickled through a pipe.  The child is reaped on every way out of this
    call, and killed first if this process stops before reading it."""
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: walk both shares here
        os.close(r)
        os.close(w)
        return theirs(), mine()
    if pid == 0:
        try:
            os.close(r)
            try:
                out = (theirs(), None)
            except BaseException as exc:  # raised again in the caller
                out = (None, _portable(exc))
            with open(w, "wb") as pipe:
                pickle.dump(out, pipe)
        finally:
            os._exit(0)
    os.close(w)
    with open(r, "rb") as pipe:
        try:
            own = mine()
            blob = pipe.read()
        except BaseException:  # the child's share is of no use now: stop it
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    if not blob:
        raise RuntimeError(f"the walk's child process ended without a result (status {status})")
    got, err = pickle.loads(blob)
    if err is not None:
        raise err
    return got, own


def _portable(exc: BaseException) -> BaseException:
    """``exc``, or a RuntimeError naming it if it does not survive a
    pickle round trip."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


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
    ``exhaustive`` false, before it would count distinct state
    ``cfg.state_cap + 1``.
    """
    store = _IdStore(cfg)

    def schedule_of(entry: list) -> tuple:
        """The events along the parent links of a level entry."""
        events = []
        while entry[1] is not None:
            events.append(entry[1])
            entry = entry[2]
        return tuple(reversed(events))

    log = _ViolationLog(cfg, schedule_of)
    visited = 1
    distinct = 1
    # (level entry, oracle or None) per terminal state, in discovery order
    terminals: list[tuple[list, tuple | None]] = []

    def search() -> bool:
        """Expand level by level; False if the state cap stops it."""
        nonlocal visited, distinct
        # ids -> level entry: [path count, event of the first discovery,
        # the parent's entry], down to the root's [1, None, None].  A
        # terminal or broken state is never expanded and gets just
        # [path count] once its violations are recorded.
        root = store.root()
        entry = [1, None, None]
        if log.record(store.violations(root), state_digest(store.resolve(root)), entry):
            entry = [1]
        frontier = {root: entry}
        q, cap, flagged = cfg.q, cfg.state_cap, store.flagged
        # on ids: the root's empty channel is interned first, as id 0
        drained, channels = (0,) * cfg.n, slice(cfg.n + 1, None)
        while frontier:
            level: dict[tuple, list] = {}
            for ids, entry in frontier.items():
                if len(entry) == 1:
                    continue
                paths = entry[0]
                succs = _successors(cfg, ids, store)
                if not succs:
                    log.stuck(store.resolve(ids), entry)
                    continue
                visited += len(succs)
                for k, (ev, succ) in enumerate(succs):
                    child = level.get(succ)
                    if child is not None:
                        child[0] += paths
                        continue
                    if distinct == cap:
                        visited -= len(succs) - k  # count only the edges walked
                        return False
                    distinct += 1
                    terminal = succ[0] == q and succ[channels] == drained
                    vs = store.violations(succ) if flagged else []
                    if not (terminal or vs):
                        level[succ] = [paths, ev, entry]
                        continue
                    gs = store.resolve(succ)
                    level[succ] = child = [paths]
                    if terminal:
                        oracle = store.render(succ)
                        vs += terminal_violations(gs, oracle)
                        terminals.append((child, oracle if collect_oracles else None))
                    if vs:
                        log.record(vs, state_digest(gs), [paths, ev, entry])
            frontier = level
        return True

    exhaustive = search()
    oracle_ms = None
    if collect_oracles:
        oracle_ms = {}
        for (paths,), oracle in terminals:
            oracle_ms[oracle] = oracle_ms.get(oracle, 0) + paths
    traces = sum(paths for (paths,), _ in terminals)
    return log.report(visited, distinct, traces, exhaustive, oracle_ms)
