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
delivered everything in the message's context snapshot.  ``run_error``
states the same rule from a schedule alone, without the model: it is
how ``replay`` tells a case that is no run from a faulty server.

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
and Dill, *Parallelizing the Murphi verifier*, CAV 1997, with the shared
work queue of Holzmann and Bošnački, *The design of a multicore
extension of the SPIN model checker*, IEEE TSE 2007):

- Only a walk with no ``emit`` and no state cap splits: ``explore`` at
  n=1 and the check-only walks.  ``gen``'s emission order and a capped
  walk's stopping point belong to one process.
- The walk is cut at the shallowest depth holding at least
  ``_SPLIT_UNITS`` nodes (172 and 125 units at depth 3 for list and rpq
  n=1).  The nodes above the cut are checked one at a time; each node at
  the cut is a *unit*, walked with its whole subtree.  The first unit is
  walked first and sizes the rest: if its node count times the number of
  other units reaches ``_SPLIT_MIN_NODES``, ``os.fork`` exists, only one
  thread runs and a second CPU is free, a forked child walks beside this
  process.
- Neither process owns a share.  Before the fork, the index of every
  remaining unit goes into one pipe as a fixed-width record and the
  write end is closed; each process then claims the next unit by
  reading one record, until the pipe is empty.  A process that is free
  takes the next unit, so both finish within one unit of each other.
  Reads from one pipe do not interleave, so each unit is claimed once.
  Records that would not fit in the pipe's buffer (a write there would
  block before anyone reads) leave the walk in one process.
- The split walk only adds up counts: the child sends back its node and
  leaf counts, two ints in ``marshal`` form.  Either both processes walk
  their units without recording a violation and the child's counts come
  back, or ``enumerate_traces`` walks the whole tree again in one
  process, whose report or exception is the outcome, so violations,
  their order and ``VIOLATION_CAP`` are the one-process walk's by
  construction.  That second way follows a violation anywhere
  (``stuck`` included), an exception in the child, a child that ends
  without its counts and a failed ``os.fork``.  A process that records
  a violation or raises empties the queue, so the other stops at the end
  of its unit.  At n=1 no message is delivered, so no model bug flag
  acts and the correct model breaks no invariant: ``explore`` walks
  twice only under a broken model.
- The child is forked, not spawned, so it walks the caller's model as
  it is, with any patched method or installed tracer; a fork also takes
  milliseconds where starting an interpreter takes a quarter second.
  What the child does is lost to the caller except its counts: tracer
  spans and ``ru_maxrss`` count the calling process's units only, which
  always include the first unit, and how many units that is varies from
  run to run.  The child ends with ``os._exit``.  Whatever stops the
  caller before the counts are read (its own units raising, an
  interrupt) kills and reaps the child and propagates.

State store of the breadth-first search (integer handles over the
collapse compression of Holzmann, *State compression in SPIN*, 1997):

- Each distinct (replica index, replica digest), sync message and
  channel gets a small int.  The index is part of the replica key
  because the digest omits it.  A state is the global-state tuple with
  ids for components, ``(slot, *replica ids, *channel ids)``, and each
  level is deduplicated on it.
- Every component move but one is memoized on ids and runs once: the
  client requests and ``issue`` per (replica id, slot), ``deliver`` per
  (replica id, message id) and the list position check per replica id.
  A message joining a channel is interned afresh on every call: a
  frozenset union of at most q messages costs about what a memo lookup
  does, and a memo keeps an entry per (channel id, message id).  The
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
- A new distinct state costs id work only.  Its replicas' position
  checks are read only once some replica id has failed one, and it is
  resolved to the component tuple its ids stand for only if it is
  terminal or violating.  No state is tested for terminality: every run
  has q client events and q(n-1) deliveries, so the terminal states are
  level q·n, and one pass over that level renders and checks each.
  Only a violating state is digested, by ``state_digest`` of that
  tuple, so violations are keyed as without the store; a stuck state,
  which needs a pinned op space, digests its own.
- A level entry holds the state's path count, the event that first
  discovered it and a link to its parent's entry.  A counterexample is
  read back along those links, so it is the breadth-first shortest one.
  A broken state keeps only its path count.  What stays alive is the
  store, the level being expanded, the level being built and the
  entries on the first-discovery paths to them: an entry that is no
  live entry's parent is garbage once its level has been expanded.
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
  ``_IdStore``, which calls the same ``_Direct`` move (on a memo miss,
  for all but ``add``) and interns the result: the store adds only
  memos and interning, and the depth-first walk, which uses neither,
  checks them.

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
import marshal
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


def request_shape_error(data_type: str, req: object) -> str | None:
    """Why no run of ``data_type`` issues ``req``, at any replica state,
    or None if its shape fits its kind: a kind of the data type, a
    non-empty str id, an int arg (not a bool) on add, increase, insert
    and update and none on remove and readd, and an anchor (a str) on an
    insert only."""
    if not isinstance(req, OperationRequest):
        return "not an OperationRequest"
    kinds = RPQ_KINDS if data_type == RPQ else LIST_KINDS
    if req.kind not in kinds:
        return f"kind {req.kind!r} is not one of {kinds}"
    if type(req.elem) is not str or not req.elem:
        return f"id {req.elem!r} is not a non-empty string"
    if req.kind in ("remove", "readd") and req.arg is not None:
        return f"{req.kind} takes no arg, got {req.arg!r}"
    if req.kind not in ("remove", "readd") and type(req.arg) is not int:
        return f"{req.kind} takes an int arg, got {req.arg!r}"
    if req.anchor is not None and (req.kind != "insert" or type(req.anchor) is not str):
        return f"an anchor is a str on an insert and null otherwise, got {req.anchor!r}"
    return None


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
            for i, pool in enumerate(self.pinned_ops):
                if not isinstance(pool, tuple) or not pool:
                    raise BadConfig(f"pinned_ops slot {i} must be a non-empty tuple, got {pool!r}")
                for req in pool:
                    if (why := request_shape_error(self.data_type, req)) is not None:
                        raise BadConfig(
                            f"pinned_ops slot {i}: {req!r} is not a {self.data_type} "
                            f"request: {why}"
                        )
                if len(set(pool)) != len(pool):  # each would count its schedules again
                    raise BadConfig(f"pinned_ops slot {i} repeats a request: {pool!r}")
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
    ids, each computed by ``_Direct`` once and interned, but ``add``,
    interned on every call."""

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
        return self._channel(_Direct.add(self.channels[cid], self.messages[mid]))

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


def run_error(cfg: ExplorationConfig, schedule) -> str | None:
    """Why ``schedule`` is no complete run of ``cfg``, or None if it may
    be one; read off the schedule alone, with no model state.

    The checks, in order: every replica index is in 0..n-1; client
    event i takes slot i at replica i mod n, for slots 0..q-1 only, with
    a request of ``request_shape_error``'s shape; there are q client
    events and q·(n-1) deliveries; and each delivery is of a message
    already issued, not to its origin, not twice to one replica, and on
    a causal channel (``_Direct.ready`` stated without the model) only
    once its destination has issued or received every message of its
    context: all that its origin had issued or received when issuing it.
    Last, each list request must name ids its replica holds an element
    of: a request other than an insert names a held id, an insert a new
    id and a held anchor or none.  A replica holds an id once an insert
    of it was issued there or delivered to it, and under
    ``bug1-readd-accept`` (unless ``bug2-assume-causal`` discards it
    first) once a re-add of it was delivered to it.  Whether a held
    anchor still exists needs the remove-win semantics of the model, so
    that is left to the replica, and a list schedule this passes may
    still be refused by ``step``.
    """
    n = cfg.n
    for ev in schedule:
        for replica in (ev.target,) if isinstance(ev, ClientEvent) else (ev.dest, ev.origin):
            if not 0 <= replica < n:
                return f"schedule names replica {replica}, configuration has {n}"
    clients = [ev for ev in schedule if isinstance(ev, ClientEvent)]
    for i, ev in enumerate(clients):
        if (ev.slot, ev.target) != (i, i % n):
            return (f"client event {i} takes slot {ev.slot} at replica {ev.target}, "
                    f"not slot {i} at replica {i % n}")
        if i == cfg.q:
            return f"client event {i} takes slot {i}, configuration has {cfg.q} slots"
        if (why := request_shape_error(cfg.data_type, ev.req)) is not None:
            return f"client event {i} is no {cfg.data_type} request: {why}"
    deliveries = len(schedule) - len(clients)
    if (len(clients), deliveries) != (cfg.q, cfg.q * (n - 1)):
        return (f"schedule has {len(clients)} client event(s) and {deliveries} delivery "
                f"event(s), a complete run has {cfg.q} and {cfg.q * (n - 1)}")
    issued = [0] * n  # counters issued so far, by replica
    held = [set() for _ in range(n)]  # (origin, counter) issued at or delivered to each
    contexts = {}  # (origin, counter) -> what its origin held when issuing it
    ids = [set() for _ in range(n)]  # list ids each replica holds an element of
    creates = {}  # (origin, counter) -> the id its arrival makes held
    creating = {"insert"}  # bug2 discards an early re-add before bug1 sees it
    if BUG_READD_ACCEPT in cfg.bug_flags and BUG_ASSUME_CAUSAL not in cfg.bug_flags:
        creating.add("readd")
    id_error = None  # reported only if every delivery is one a run makes
    for ev in schedule:
        if isinstance(ev, ClientEvent):
            issued[ev.target] += 1
            dot = (ev.target, issued[ev.target])
            contexts[dot] = frozenset(held[ev.target])
            held[ev.target].add(dot)
            if cfg.data_type == LIST:
                id_error = id_error or _id_error(ev, ids[ev.target])
                if ev.req.kind in creating:
                    creates[dot] = ev.req.elem
                    ids[ev.target].add(ev.req.elem)
            continue
        dot = (ev.origin, ev.counter)
        if ev.dest == ev.origin:
            why = "a replica's own messages are not delivered to it"
        elif not 0 < ev.counter <= issued[ev.origin]:
            why = f"replica {ev.origin} has issued {issued[ev.origin]} message(s) by then"
        elif dot in held[ev.dest]:
            why = "it was delivered before"
        elif cfg.channel == CHANNEL_CAUSAL and (lacks := contexts[dot] - held[ev.dest]):
            origin, counter = min(lacks)
            why = (f"a causal channel holds it until replica {ev.dest} has message "
                   f"{counter} from replica {origin}")
        else:
            held[ev.dest].add(dot)
            if dot in creates:
                ids[ev.dest].add(creates[dot])
            continue
        return (f"delivery of message {ev.counter} from replica {ev.origin} to replica "
                f"{ev.dest} is in no run: {why}")
    return id_error


def _id_error(ev: ClientEvent, ids: set) -> str | None:
    """Why a replica holding elements of ``ids`` refuses ``ev``'s list
    request by its ids alone, or None."""
    req = ev.req
    if req.kind == "insert" and req.elem in ids:
        return f"slot {ev.slot} inserts {req.elem!r}, which replica {ev.target} already holds"
    name = req.anchor if req.kind == "insert" else req.elem
    if name is None or name in ids:
        return None
    verb = "inserts after" if req.kind == "insert" else f"{req.kind}s"
    return f"slot {ev.slot} {verb} {name!r}, which replica {ev.target} does not hold"


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
               oracle_ms: dict | None = None) -> ExplorationReport:
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
# set from the crossover in BENCH_24.json ("split_crossover": split
# forced against one process, alternating pairs on a 2-CPU host, with
# and without 100 MiB of other objects in the process).  Walks estimated
# at up to 868 nodes (rpq n=1 q=4 is 744) were not faster split in both;
# from 1,116 up the split won 10 or 11 of 11 pairs in both.
_SPLIT_UNITS = 64
_SPLIT_MIN_NODES = 1_000
_RECORD = 4  # bytes per unit index in the queue


class _Walk:
    """A depth-first walk: how many nodes and leaves it walked and what
    it found (``log``).  Schedules are read off ``path``, the events from
    the node the walk started at."""

    def __init__(self, cfg: ExplorationConfig, emit, check: bool):
        self.cfg = cfg
        self.emit = emit
        self.check = check
        self.visited = 0
        self.leaves = 0
        self.budget_hit = False
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
    ``cfg.state_cap + 1``.  A large walk may be split with a child process
    (see "Splitting the depth-first walk" in the module docstring).
    """
    walk = _split_walk(cfg, check) if emit is None and cfg.state_cap is None else None
    if walk is None:
        walk = _Walk(cfg, emit, check)
        walk.below(walk.node(initial_state(cfg)))
    return walk.log.report(walk.visited, walk.visited, walk.leaves, not walk.budget_hit)


def _split_walk(cfg: ExplorationConfig, check: bool) -> _Walk | None:
    """``enumerate_traces`` without ``emit`` or a state cap: a walk that
    counted the nodes above the cut and the units below it, the child's
    units added in; None unless both processes walked their units without
    recording a violation and the child's counts came back."""

    def counts(walk: _Walk, units) -> tuple | None:
        """(nodes, leaves) of ``walk`` once it has walked each unit of the
        iterator ``units`` with its subtree; None, stopping at the end of
        the unit, once the walk has recorded a violation.  Whatever ends
        the loop, ``units`` is emptied, so the other process claims no
        further unit."""
        try:
            for gs in units:
                walk.below(walk.node(gs))
                if walk.log.found:
                    return None
            return (walk.visited, walk.leaves)
        finally:
            for _ in units:
                pass

    walk = _Walk(cfg, None, check)
    level = [initial_state(cfg)]
    while 0 < len(level) < _SPLIT_UNITS:
        level = [succ for gs in level for _, succ in walk.node(gs)]
    # the first unit is walked here, and sizes the others
    above = walk.visited
    if walk.log.found or counts(walk, iter(level[:1])) is None:
        return None
    rest = level[1:]
    queue = None
    if rest and (walk.visited - above) * len(rest) >= _SPLIT_MIN_NODES and _can_fork():
        queue = _unit_queue(len(rest))
    if queue is None:  # nothing to fork for: walk the rest here
        return None if counts(walk, iter(rest)) is None else walk
    try:
        theirs = _fork_beside(
            lambda: counts(_Walk(cfg, None, check), (rest[i] for i in _claim(queue))),
            lambda: counts(walk, (rest[i] for i in _claim(queue))),
        )
    finally:
        os.close(queue)
    if theirs is None or walk.log.found:
        return None
    walk.visited += theirs[0]
    walk.leaves += theirs[1]
    return walk


def _unit_queue(count: int) -> int | None:
    """The read end of a pipe that holds the indices ``0 .. count-1``,
    one ``_RECORD``-byte record each, its write end closed; None if the
    records do not fit in the pipe's buffer."""
    records = b"".join(i.to_bytes(_RECORD, "little") for i in range(count))
    r, w = os.pipe()
    fits = False
    try:
        os.set_blocking(w, False)
        fits = os.write(w, records) == len(records)
    except BlockingIOError:
        pass
    finally:
        os.close(w)
        if not fits:
            os.close(r)
    return r if fits else None


def _claim(queue: int):
    """The indices this process reads off ``queue``, one record at a
    time, until the queue is empty.  Reads from one pipe do not
    interleave and each takes one whole record, so each index goes to
    one process once."""
    while record := os.read(queue, _RECORD):
        yield int.from_bytes(record, "little")


def _can_fork() -> bool:
    """Whether a forked child can walk beside this process: ``os.fork``
    exists, no other thread could hold a lock the child would inherit
    held, and a second CPU is there to run it."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return hasattr(os, "fork") and threading.active_count() == 1 and cpus >= 2


def _fork_beside(theirs: Callable[[], tuple | None], mine: Callable[[], object]) -> tuple | None:
    """The pair of ints ``theirs`` returns in a forked child while this
    process runs ``mine``; None if the fork fails or the child sends no
    pair.  The child is reaped on every way out of this call, and killed
    first if this process stops before reading it."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            os.close(r)
            got = theirs()
            if got is not None:
                os.write(w, marshal.dumps(got))
        finally:
            os._exit(0)
    os.close(w)
    with open(r, "rb") as pipe:
        try:
            mine()
            blob = pipe.read()
        except BaseException:  # the child's counts are of no use now: stop it
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)
    return marshal.loads(blob) if blob else None


# -- deduplicating search -------------------------------------------------


def explore(cfg: ExplorationConfig) -> ExplorationReport:
    """Search the full state space and check every invariant.

    Returns a report with exact distinct-state and terminal-schedule
    counts.  Raises ``BudgetExceeded`` (with the partial report attached)
    when ``cfg.state_cap`` distinct states is not enough to finish.
    """
    # One replica means no messages: the state graph is a tree, every
    # walked node is a distinct state, and the depth-first walk needs only
    # O(depth) memory where the frontier of a breadth-first pass would
    # hold a whole level of full states.
    report = enumerate_traces(cfg, check=True) if cfg.n == 1 else _explore_bfs(cfg, False)
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
    state have the same length: deduplicating within a level is complete.
    Every run has q client events and q(n-1) deliveries, so level q·n is
    the set of terminal states: levels 1 .. q·n are built, and one pass
    over level q·n renders each of its states, checks it, and adds up its
    path count and, when ``collect_oracles`` asks, its oracle.  Stops
    early, with ``exhaustive`` false, before it would count distinct state
    ``cfg.state_cap + 1``; if that is inside level q·n, the pass takes the
    part of it built so far.

    The pass records its violations after every ``stuck`` state of level
    q·n-1.  At n >= 2 no state there is stuck, as one with a slot left
    still owes that slot's n-1 deliveries; so only a search at n=1, which
    ``explore`` walks depth-first, could keep other violations under
    ``VIOLATION_CAP`` than a check at discovery would.
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
    last = cfg.q * cfg.n

    def search() -> tuple[dict, bool]:
        """Build levels 1 .. q·n; level q·n, whole or as far as the state
        cap let it be built, and False if the cap stopped the search."""
        nonlocal visited, distinct
        # ids -> level entry: [path count, event of the first discovery,
        # the parent's entry], down to the root's [1, None, None].  A
        # broken state is never expanded and gets just [path count] once
        # its violations are recorded.
        root = store.root()
        entry = [1, None, None]
        if log.record(store.violations(root), state_digest(store.resolve(root)), entry):
            entry = [1]
        frontier = {root: entry}
        cap, flagged = cfg.state_cap, store.flagged
        for depth in range(1, last + 1):
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
                        return (level if depth == last else {}), False
                    distinct += 1
                    level[succ] = child = [paths, ev, entry]
                    # the pass checks level q·n
                    if flagged and depth < last and (vs := store.violations(succ)):
                        log.record(vs, state_digest(store.resolve(succ)), child)
                        level[succ] = [paths]
            frontier = level
        return frontier, True

    terminal, exhaustive = search()
    traces = 0
    oracle_ms: dict | None = {} if collect_oracles else None
    for ids, entry in terminal.items():
        oracle = store.render(ids)
        gs = store.resolve(ids)
        vs = store.violations(ids) + terminal_violations(gs, oracle)
        if vs:
            log.record(vs, state_digest(gs), entry)
        traces += entry[0]
        if oracle_ms is not None:
            oracle_ms[oracle] = oracle_ms.get(oracle, 0) + entry[0]
    return log.report(visited, distinct, traces, exhaustive, oracle_ms)
