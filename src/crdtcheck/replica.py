"""Replica state machines for the two replicated data types.

Both data types — a priority queue with add / increase / remove, and an
ordered list with insert / update / remove / re-add — share one
conflict-resolution recipe:

- every applied operation is kept as a record alongside the causal
  context its origin had when issuing it;
- the visible state of an element is a pure function of the set of
  applied records, so replicas that applied the same dots render the
  same bytes no matter the delivery order;
- removes win: a record survives a remove only if the remove's dot was
  already in the record's context, i.e. the record's author had seen
  the remove.  Anything concurrent with (or earlier than) a remove is
  dead.

Out-of-order delivery is handled by *buffering*, not by assuming a
causal channel: an incoming operation whose dependency dots are not all
applied yet sits in a pending buffer until they are, and the buffer is
flushed transitively after every apply.

## Invariants

- delivery-once: a dot is applied at most once per replica; handing the
  same sync message in twice raises ``DuplicateDelivery``.
- strong convergence: equal applied dot sets imply identical
  ``normalize()`` text.
- position stability: a list element's position is fixed by its
  original insert; re-add never reassigns it.
- buffer liveness: once every broadcast message has been delivered, the
  pending buffer drains (dependencies only ever name dots broadcast
  earlier).

Bug injection: ``bug1-readd-accept`` makes a re-add with missing
dependencies take effect immediately, fabricating a position for the
element it has never seen; the original insert, arriving later, is
ignored.  ``bug2-assume-causal`` is a replica that assumes a causal
channel: it skips the dependency check and silently discards an
operation whose prerequisites are missing, which is only correct when
the transport already delivers causally.  Both flags exist so the
explorer can demonstrate that the checker catches the divergence they
cause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring

from .dots import CausalContext, Dot
from .errors import DuplicateDelivery, UnknownElement
from .operations import LIST, RPQ, Operation, OperationRequest, SyncMessage, canonical_digest
from .positions import Position, generate_between, position_wire
from .wire import canonical_json

BUG_READD_ACCEPT = "bug1-readd-accept"
BUG_ASSUME_CAUSAL = "bug2-assume-causal"

# Fabricated positions get counters far above any real dot counter so
# they never collide with origin-generated position stamps; each is one
# above the highest stamp held, so the canonical key needs no counter.
_BUG_NONCE_FLOOR = 1_000_000


class Existence(Enum):
    NON_EXISTENT = "non-existent"
    EXISTENT = "existent"
    ONCE_EXISTENT = "once-existent"


@dataclass(frozen=True, slots=True)
class Rec:
    """One applied operation: its dot, its payload and its origin's
    causal-context snapshot.  ``val`` is the added value, the delta, or
    the inserted or updated attribute; removes and re-adds carry None."""

    dot: Dot
    val: int | None
    ctx: CausalContext

    def key(self) -> tuple:
        return (self.dot.key(), self.val, self.ctx.canonical())


def _keys(recs: tuple[Rec, ...]) -> tuple:
    return tuple(sorted(map(Rec.key, recs)))


@dataclass(frozen=True, slots=True)
class RpqOps:
    adds: tuple[Rec, ...] = ()
    incs: tuple[Rec, ...] = ()
    rems: tuple[Rec, ...] = ()
    # Cached ``view()``; a newly constructed record set starts without one.
    _view: "RpqView | None" = field(default=None, init=False, compare=False, repr=False)

    def canonical(self) -> tuple:
        return (_keys(self.adds), _keys(self.incs), _keys(self.rems))

    def view(self) -> "RpqView":
        """``rpq_view`` of this record set, derived once per object."""
        if self._view is None:
            object.__setattr__(self, "_view", rpq_view(self))
        return self._view


@dataclass(frozen=True, slots=True)
class ListOps:
    ins: Rec
    pos: Position  # fixed by the insert; re-add never reassigns it
    upds: tuple[Rec, ...] = ()
    rems: tuple[Rec, ...] = ()
    readds: tuple[Rec, ...] = ()
    # Cached ``view()``; a newly constructed record set starts without one.
    _view: "ListView | None" = field(default=None, init=False, compare=False, repr=False)

    def canonical(self) -> tuple:
        return (self.ins.key(), self.pos, _keys(self.upds), _keys(self.rems),
                _keys(self.readds))

    def view(self) -> "ListView":
        """``list_view`` of this record set, derived once per object."""
        if self._view is None:
            object.__setattr__(self, "_view", list_view(self))
        return self._view


# The record tuple each operation kind extends, by its index among the record
# set's constructor arguments; a list insert creates the ``ListOps`` instead.
_SLOT = {
    RPQ: {"add": 0, "increase": 1, "remove": 2},
    LIST: {"update": 2, "remove": 3, "readd": 4},
}
_VALUELESS = ("remove", "readd")


class _View:
    """A view's ``wire()``: ``as_wire()`` as canonical JSON, rendered once
    and cached in the view's ``_wire`` field, so every state that shares
    the view shares the rendering."""

    __slots__ = ()

    def wire(self) -> str:
        if self._wire is None:
            object.__setattr__(self, "_wire", canonical_json(self.as_wire()))
        return self._wire


@dataclass(frozen=True, slots=True)
class RpqView(_View):
    existence: Existence
    value: int | None
    add_dot: Dot | None
    _wire: str | None = field(default=None, init=False, compare=False, repr=False)

    def as_wire(self) -> dict:
        add_dot = self.add_dot.as_wire() if self.add_dot else None
        return {"add_dot": add_dot, "existence": self.existence.value, "value": self.value}


@dataclass(frozen=True, slots=True)
class ListView(_View):
    existence: Existence
    attr: int
    pos: Position
    add_dot: Dot
    _wire: str | None = field(default=None, init=False, compare=False, repr=False)

    def as_wire(self) -> dict:
        attr = self.attr if self.existence is Existence.EXISTENT else None
        return {"add_dot": self.add_dot.as_wire(), "attr": attr,
                "existence": self.existence.value, "pos": position_wire(self.pos)}


def _survivor_test(rems: tuple[Rec, ...]):
    """The remove-win kill rule as a test of a record's context: the
    record lives iff its context contains every remove in ``rems``.  The
    test looks at each origin's highest remove, not at every remove.

    A context whose frontier covers each origin's highest remove counter
    contains every remove.  One that lacks some origin's highest remove
    dot altogether misses that remove.  Only a highest remove dot held
    past a gap, in ``extra``, leaves the lower ones to check one by one.
    """
    tops: dict[int, int] = {}
    for r in rems:
        if r.dot.counter > tops.get(r.dot.replica, 0):
            tops[r.dot.replica] = r.dot.counter

    def survives(ctx: CausalContext) -> bool:
        for replica, top in tops.items():
            if ctx.seen.get(replica, 0) < top:
                if Dot(top, replica) not in ctx.extra:
                    return False
                return all(ctx.contains(r.dot) for r in rems)
        return True

    return survives


def rpq_view(ops: RpqOps) -> RpqView:
    survives = _survivor_test(ops.rems)
    alive = [a for a in ops.adds if survives(a.ctx)]
    if alive:
        win = max(alive, key=lambda a: a.dot)
        total = win.val + sum(i.val for i in ops.incs if survives(i.ctx))
        return RpqView(Existence.EXISTENT, total, win.dot)
    if ops.adds:
        last = max(ops.adds, key=lambda a: a.dot)
        return RpqView(Existence.ONCE_EXISTENT, None, last.dot)
    return RpqView(Existence.NON_EXISTENT, None, None)


def list_view(ops: ListOps) -> ListView:
    survives = _survivor_test(ops.rems)
    ins = ops.ins
    alive = survives(ins.ctx) or any(survives(x.ctx) for x in ops.readds)
    candidates = [(ins.dot, ins.val)] + [(u.dot, u.val) for u in ops.upds if survives(u.ctx)]
    _, attr = max(candidates)
    existence = Existence.EXISTENT if alive else Existence.ONCE_EXISTENT
    return ListView(existence, attr, ops.pos, ins.dot)


@dataclass(frozen=True, slots=True)
class ReplicaState:
    """One replica's full state.  All transitions return a new state."""

    data_type: str
    replica: int
    elems: dict = field(default_factory=dict)  # elem id -> RpqOps | ListOps
    pending: dict = field(default_factory=dict)  # Dot -> SyncMessage
    applied: CausalContext = field(default_factory=CausalContext)
    bug_flags: frozenset = frozenset()

    def _successor(self, elems: dict, pending: dict, applied: CausalContext) -> "ReplicaState":
        """Every transition's result, built by one constructor call."""
        return ReplicaState(self.data_type, self.replica, elems, pending, applied, self.bug_flags)

    def share_applied(self, contexts: dict) -> None:
        """Rebind ``applied`` to the equal context in ``contexts``, which
        maps ``canonical()`` to one context object per value, adding it if
        it is new.  States that share one such dict share their context
        objects; the state's value, digest and canonical text do not change."""
        ctx = contexts.setdefault(self.applied.canonical(), self.applied)
        object.__setattr__(self, "applied", ctx)

    def has_delivered(self, dot: Dot) -> bool:
        """A dot was delivered here iff it is applied or buffered."""
        return self.applied.contains(dot) or dot in self.pending

    # -- client side -------------------------------------------------

    def request_error(self, req: OperationRequest) -> str | None:
        """Why this client request must be rejected, or None if valid."""
        if self.data_type == RPQ:
            return None  # every priority-queue request is total
        if req.kind == "insert":
            if req.elem in self.elems:
                return f"id {req.elem!r} already in use"
            if req.anchor is not None:
                anchor = self.elems.get(req.anchor)
                if anchor is None or anchor.view().existence is not Existence.EXISTENT:
                    return f"anchor {req.anchor!r} not resolvable"
            return None
        if req.elem not in self.elems:
            return f"id {req.elem!r} never seen here"
        return None

    def issue(self, req: OperationRequest) -> tuple["ReplicaState", SyncMessage]:
        """Apply a client request locally and produce its sync message.

        Raises ``UnknownElement`` for requests that reference ids or
        anchors this replica cannot resolve; rejected requests change
        nothing and broadcast nothing.
        """
        err = self.request_error(req)
        if err is not None:
            raise UnknownElement(err)
        snapshot = self.applied
        for buffered in self.pending:
            snapshot = snapshot.add(buffered)
        # Own dots are applied on issue, so they fill the frontier from 1.
        dot = Dot(self.applied.seen.get(self.replica, 0) + 1, self.replica)
        msg = SyncMessage(origin=self.replica, op=self._stamp(req, dot), ctx=snapshot)
        return self._apply(msg, self.pending), msg

    def _stamp(self, req: OperationRequest, dot: Dot) -> Operation:
        deps: frozenset[Dot] = frozenset()
        pos: Position | None = None
        if self.data_type == RPQ:
            if req.kind in ("increase", "remove"):
                ops = self.elems.get(req.elem)
                if ops is not None and ops.view().existence is Existence.EXISTENT:
                    deps = frozenset([ops.view().add_dot])
        else:
            if req.kind == "insert":
                pos = self._position_after(req.anchor, dot)
            else:
                deps = frozenset([self.elems[req.elem].ins.dot])
        return Operation(kind=req.kind, elem=req.elem, dot=dot, arg=req.arg,
                         anchor=req.anchor, pos=pos, deps=deps)

    def _position_after(self, anchor: str | None, dot: Dot) -> Position:
        """Generate a position between the anchor and its visible successor."""
        left = self.elems[anchor].pos if anchor is not None else None
        right = min(
            (o.pos for o in self.elems.values()
             if (left is None or o.pos > left) and o.view().existence is Existence.EXISTENT),
            default=None,
        )
        return generate_between(left, right, self.replica, dot.counter)

    # -- remote side -------------------------------------------------

    def deliver(self, msg: SyncMessage) -> "ReplicaState":
        """Handle one incoming sync message.

        Apply if the dependencies are met, buffer otherwise, then flush
        the buffer to a fixpoint.  Under ``bug2-assume-causal`` nothing is
        buffered: unmet dependencies mean the operation is mishandled on
        the spot.
        """
        dot = msg.op.dot
        if self.has_delivered(dot):
            raise DuplicateDelivery(f"dot {dot} delivered twice at replica {self.replica}")
        if self._deps_met(msg.op):
            state = self._apply(msg, self.pending)
        elif BUG_ASSUME_CAUSAL in self.bug_flags:
            # The operation is "processed" — its dot counts as handled —
            # but its effect is dropped.  This is exactly the misbehaviour
            # a causal-delivery assumption hides.
            state = self._successor(self.elems, self.pending, self.applied.add(dot))
        elif BUG_READD_ACCEPT in self.bug_flags and msg.op.kind == "readd":
            state = self._bug_materialize_readd(msg)
        else:
            state = self._successor(self.elems, {**self.pending, dot: msg}, self.applied)
        return state._flush()

    def _deps_met(self, op: Operation) -> bool:
        return all(self.applied.contains(d) for d in op.deps)

    def _apply(self, msg: SyncMessage, pending: dict) -> "ReplicaState":
        """Apply ``msg``'s effect, leaving ``pending`` as the buffer."""
        return self._successor(self._effect(msg.op, msg.ctx), pending,
                               self.applied.add(msg.op.dot))

    def _bug_materialize_readd(self, msg: SyncMessage) -> "ReplicaState":
        """bug1: accept a re-add whose insert never arrived.

        The element springs into existence with a locally fabricated
        position; the real insert is ignored when it shows up.  The
        stamp is the highest held plus one, not a count of fabricated
        elements: a second early re-add replaces the first fabrication.
        """
        stamp = max((o.pos[-1][2] for o in self.elems.values()), default=0)
        last = max((o.pos for o in self.elems.values()
                    if o.view().existence is Existence.EXISTENT), default=None)
        pos = generate_between(last, None, self.replica, max(stamp, _BUG_NONCE_FLOOR) + 1)
        elems = dict(self.elems)
        elems[msg.op.elem] = ListOps(Rec(msg.op.dot, 0, msg.ctx), pos)
        return self._successor(elems, self.pending, self.applied.add(msg.op.dot))

    def _flush(self) -> "ReplicaState":
        """Apply the first buffered operation, in dot order, whose
        dependencies are met, and repeat until none is."""
        state = self
        while state.pending:
            ready = next(
                (d for d in sorted(state.pending) if state._deps_met(state.pending[d].op)), None
            )
            if ready is None:
                break
            pending = dict(state.pending)
            state = state._apply(pending.pop(ready), pending)
        return state

    # -- effects -----------------------------------------------------

    def _effect(self, op: Operation, ctx: CausalContext) -> dict:
        elems = dict(self.elems)
        ops = elems.get(op.elem)
        if self.data_type == LIST and op.kind == "insert":
            # A second insert for one id is ignored: either a bug
            # fabricated the element (ignoring the late insert is the bug)
            # or a duplicate id arrived.  The first keeps the position.
            if ops is None:
                elems[op.elem] = ListOps(Rec(op.dot, op.arg, ctx), op.pos)
            return elems
        slot = _SLOT[self.data_type].get(op.kind)
        if slot is None:
            raise ValueError(f"bad kind {op.kind!r} for {self.data_type}")
        if self.data_type == RPQ:
            parts = [ops.adds, ops.incs, ops.rems] if ops is not None else [(), (), ()]
        else:
            assert ops is not None, "deps guarantee the insert applied first"
            parts = [ops.ins, ops.pos, ops.upds, ops.rems, ops.readds]
        parts[slot] += (Rec(op.dot, None if op.kind in _VALUELESS else op.arg, ctx),)
        elems[op.elem] = (RpqOps if self.data_type == RPQ else ListOps)(*parts)
        return elems

    # -- derived views -----------------------------------------------
    #
    # An element's view is a pure function of its record set, so each
    # ``RpqOps`` / ``ListOps`` object derives it once (``ops.view()``)
    # and every reader below goes through that.  Each view renders its
    # JSON once too (``view.wire()``), and ``normalize`` only joins those
    # pieces.  Record sets are shared between a state and its
    # successors, and so are their views and renderings: a new state
    # re-renders only the elements its last transition changed.

    def views(self) -> dict:
        return {e: o.view() for e, o in self.elems.items()}

    def existent(self) -> dict:
        """The views of the existent elements, by id."""
        return {e: o.view() for e, o in self.elems.items()
                if o.view().existence is Existence.EXISTENT}

    def query(self):
        """Reader-facing value: rpq — the max-value existent element
        (ties broken by smaller id); list — existent (id, attr) pairs in
        position order."""
        existent = sorted(self.existent().items())  # by id, which breaks every tie
        if self.data_type == RPQ:
            return max(((e, v.value) for e, v in existent), key=lambda ev: ev[1], default=None)
        return [(e, v.attr) for e, v in sorted(existent, key=lambda ev: ev[1].pos)]

    def normalize(self) -> str:
        """Canonical form: sorted-key JSON text, no whitespace or ASCII
        escapes, as a server's Inspect reply carries it.

        Contains the per-element views plus the applied-dot context, and
        deliberately nothing else — not the pending buffer, not the
        record store — so replicas that applied the same dots serialize
        identically.
        """
        elements = ",".join(
            encode_basestring(e) + ":" + v.wire() for e, v in sorted(self.views().items())
        )
        return "".join((
            '{"ctx":', canonical_json(self.applied.as_wire()),
            ',"elements":{', elements, '},"type":', encode_basestring(self.data_type), "}",
        ))

    # -- identity ----------------------------------------------------

    def canonical_key(self) -> tuple:
        """Full-fidelity identity for state-space deduplication.

        Unlike ``normalize`` this keeps everything that can influence a
        future transition: record stores with their context snapshots,
        the pending buffer contents, the applied context.  The delivered
        set, the next own dot and the next bug-1 stamp derive from these.
        Buffer *ordering* still does not matter.
        """
        return (
            self.applied.canonical(),
            tuple(sorted((e, o.canonical()) for e, o in self.elems.items())),
            tuple(sorted((d.key(), m.canonical()) for d, m in self.pending.items())),
        )

    def digest(self) -> bytes:
        """16-byte digest of ``canonical_key()``.  Like the key it omits
        the replica index, so fresh replicas 0 and 1 digest the same."""
        return canonical_digest(self.canonical_key())


def fresh_replica(data_type: str, replica: int,
                  bug_flags: frozenset | None = None) -> ReplicaState:
    return ReplicaState(
        data_type=data_type,
        replica=replica,
        bug_flags=bug_flags or frozenset(),
    )
