"""Standalone replica servers speaking the framed JSON protocol.

This is a second, independent implementation of the replica semantics —
written against the protocol, not against the model code.  It keeps its
own causal-context bookkeeping, eagerly maintained liveness flags on
every record (where the model derives survival once per record set), a
position-sorted element index, and its own position generator.

``canonical_state`` renders each element's ``"id":{...}`` member once
and keeps it in ``members`` until that element changes.  Every change
to an element drops its entry first: ``_apply`` (the only path that
adds records or flips liveness flags, for client ops, deliveries and
buffer flushes alike) and ``_fabricate``, through which the bug paths
create an element.  The causal context is rendered afresh on every
call.  An insert finds its right neighbour by bisecting the index past
the anchor, then stepping to the first existent entry.
The conformance harness drives both implementations through identical
schedules and compares canonical bytes; sharing nothing with the model
but the ``wire`` module, the protocol's framing and JSON encoder, is
what makes that comparison worth running.

A server instance is single-threaded and lockstep: every incoming frame
produces exactly one reply frame.  Client operations answer with an Ack
carrying the sync messages to forward (the server never talks to its
peers directly — the driver owns the topology), deliveries answer with a
bare Ack, and Inspect answers with the canonical state string.
``ReplicaServer.send`` answers a refused frame with an Error frame, so
a server is its own in-process endpoint, and ``serve_connection``
replies to a socket through it.

Bug flags (transcription mistakes kept reproducible on purpose) are
catalogued once, in ``BUG_DESCRIPTIONS``, which ``crdtcheck bugs`` prints.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from contextlib import suppress
from itertools import count

from .errors import (
    CrdtCheckError,
    DuplicateDelivery,
    MalformedFrame,
    ProtocolViolation,
    UnknownFlag,
)
from .wire import FrameSocket, canonical_json

RPQ = "rpq"
LIST = "list"

BASE = 64
_GHOST_COUNTER_FLOOR = 1_000_000

BUG_DESCRIPTIONS = {
    "bug1-readd-accept": (
        "re-add applied without its insert; fabricates a position, "
        "drops the real insert when it arrives"
    ),
    "bug2-assume-causal": (
        "no dependency buffering; operations arriving before their "
        "prerequisites are silently discarded"
    ),
    "bug4-dummy-position": (
        "update/remove/re-add on a missing element materializes a "
        "placeholder at out-of-range position [[64,0,0]]"
    ),
    "bug7-idgen-order": (
        "position index breaks ties by descending (replica, counter); "
        "anchored inserts pick the wrong neighbor"
    ),
}
BUG_FLAGS = tuple(BUG_DESCRIPTIONS)


def check_bug_flags(bug_flags) -> tuple[str, ...]:
    """The flags as a tuple.  Raise ``UnknownFlag`` for a bare string,
    which would read as its characters, or for the first flag outside
    the catalog."""
    if isinstance(bug_flags, str):
        raise UnknownFlag(f"bug flags must be a collection of names, got the string {bug_flags!r}")
    flags = tuple(bug_flags)
    for flag in flags:
        if flag not in BUG_FLAGS:
            raise UnknownFlag(f"{flag!r} is not in the bug catalog {list(BUG_FLAGS)}")
    return flags


_RPQ_KINDS = ("add", "increase", "remove")
_LIST_KINDS = ("insert", "update", "remove", "readd")


def _int(x) -> bool:
    return type(x) is int  # JSON true and false decode to bools, an int subclass


def _ints(obj, n: int) -> bool:
    """True if ``obj`` is an array of ``n`` integers."""
    return isinstance(obj, list) and len(obj) == n and all(map(_int, obj))


def _dot_order(dot):
    # Dots are (replica, counter) pairs on the wire; causal order sorts
    # by counter first.
    return (dot[1], dot[0])


class _Ctx:
    """Mutable causal context: contiguous per-replica frontier plus a
    spill set of out-of-order dots, folded into the frontier as gaps
    close."""

    __slots__ = ("seen", "extra")

    def __init__(self, seen=None, extra=None):
        self.seen = dict(seen) if seen else {}
        self.extra = set(extra) if extra else set()

    def has(self, replica: int, counter: int) -> bool:
        return counter <= self.seen.get(replica, 0) or (replica, counter) in self.extra

    def add(self, replica: int, counter: int) -> None:
        if self.has(replica, counter):
            return
        if counter == self.seen.get(replica, 0) + 1:
            top = counter
            while (replica, top + 1) in self.extra:
                top += 1
                self.extra.discard((replica, top))
            self.seen[replica] = top
        else:
            self.extra.add((replica, counter))

    def snapshot(self) -> "_Ctx":
        return _Ctx(self.seen, self.extra)

    def wire(self) -> dict:
        return {
            "extra": [[r, c] for r, c in sorted(self.extra, key=lambda rc: (rc[1], rc[0]))],
            "seen": {str(r): c for r, c in sorted(self.seen.items())},
        }


class _Rec:
    """One applied operation record: dot, payload, origin context, and a
    liveness flag the remove path keeps current."""

    __slots__ = ("dot", "val", "ctx", "alive")

    def __init__(self, dot, val, ctx, alive):
        self.dot = dot
        self.val = val
        self.ctx = ctx
        self.alive = alive


class _RpqElem:
    __slots__ = ("adds", "incs", "rems")

    def __init__(self):
        self.adds = []  # _Rec, val = added value
        self.incs = []  # _Rec, val = delta
        self.rems = []  # (replica, counter)


class _ListElem:
    __slots__ = ("ins", "pos", "upds", "readds", "rems")

    def __init__(self, dot, pos, attr, ctx):
        self.ins = _Rec(dot, attr, ctx, True)  # val = initial attr
        self.pos = pos  # tuple of (digit, replica, counter) triples
        self.upds = []    # _Rec, val = new attr
        self.readds = []  # _Rec, val unused
        self.rems = []    # (replica, counter)


def _survives(ctx: _Ctx, rems) -> bool:
    return all(ctx.has(r, c) for r, c in rems)


def _latest(recs):
    """The record with the greatest dot, or None if there is none."""
    return max(recs, key=lambda rec: _dot_order(rec.dot), default=None)


def _rpq_winner(e: _RpqElem):
    """The add record that determines the element's value: the live add
    with the greatest dot, or None if no add is live."""
    return _latest([rec for rec in e.adds if rec.alive])


def _kill(recs, dot) -> None:
    """Remove-win: every live record whose context lacks ``dot`` dies."""
    for rec in recs:
        if rec.alive and not rec.ctx.has(*dot):
            rec.alive = False


def _gen_pos(left, right, replica, counter):
    """Dense position strictly between two neighbors (either may be None).

    Same scheme as the origin-side generator this server is measured
    against: walk the shared prefix, take the midpoint of the first
    non-empty digit gap, pad with a zero digit when squeezing under a
    digit-1 bound.  Final digits are never zero, so extending a path
    always produces something strictly larger.  No precondition is
    enforced — with a broken neighbor index (bug7) the inputs can be
    out of order, and the walk still terminates with *some* position.
    A loop, not a recursion: a peer may send a position of any length.
    """
    out = []
    for depth in count():
        l_trip = left[depth] if left is not None and depth < len(left) else None
        r_trip = right[depth] if right is not None and depth < len(right) else None
        hi = r_trip[0] if r_trip is not None else BASE
        lo = max(l_trip[0] + 1 if l_trip is not None else 0, 1)
        if lo <= hi - 1:
            return (*out, ((lo + hi - 1) // 2, replica, counter))
        if l_trip is not None:
            out.append(l_trip)
            right = right if l_trip == r_trip else None
        elif hi == 1:
            out.append((0, replica, counter))
            right = None
        else:  # hi == 0: the bound starts with a zero digit; copy its padding triple
            out.append(r_trip)


class ReplicaServer:
    """One replica endpoint; drive it with ``handle_frame``, or with
    ``send``, which makes a server its own loopback endpoint."""

    def __init__(self, data_type: str, replica: int, n: int, bug_flags=()):
        if data_type not in (RPQ, LIST):
            raise ProtocolViolation(f"unknown data type {data_type!r}")
        bug_flags = check_bug_flags(bug_flags)
        self.data_type = data_type
        self._state_tail = '},"type":' + canonical_json(data_type) + "}"
        self.replica = replica
        self.n = n
        self._replica_names = {str(r): r for r in range(n)}  # a seen key -> its replica
        self.applied = _Ctx()
        self.elems: dict = {}
        self.by_pos: list = []  # (index key, pos, elem id); inserts only
        self.pending: dict = {}  # (replica, counter) -> sync msg object
        self.members: dict = {}  # elem id -> its rendered '"id":{...}' member
        self.bug1 = "bug1-readd-accept" in bug_flags
        self.bug2 = "bug2-assume-causal" in bug_flags
        self.bug4 = "bug4-dummy-position" in bug_flags
        self.bug7 = "bug7-idgen-order" in bug_flags

    # -- frame dispatch ------------------------------------------------

    def send(self, obj: dict) -> dict:
        """The reply to one frame: ``handle_frame``'s, or an Error frame
        carrying the error text if the frame is refused."""
        try:
            return self.handle_frame(obj)
        except CrdtCheckError as exc:
            return {"error": str(exc), "type": "Error"}

    def handle_frame(self, obj: dict) -> dict:
        kind = obj.get("type")
        if kind == "ClientOp":
            return self._handle_client(obj.get("req"))
        if kind == "Sync":
            return self._handle_sync(obj.get("msg"))
        if kind == "Inspect":
            return {"state": self.canonical_state(), "type": "InspectReply"}
        if kind == "Shutdown":
            return {"accepted": True, "syncs": [], "type": "Ack"}
        raise ProtocolViolation(f"unknown frame type {kind!r}")

    # -- client operations ----------------------------------------------

    def _handle_client(self, req) -> dict:
        if not isinstance(req, dict):
            raise ProtocolViolation("ClientOp frame carries no request object")
        kind, elem, arg, anchor = self._check_request_shape(req)
        if self._refuses(kind, elem, anchor):
            return {"accepted": False, "syncs": [], "type": "Ack"}

        # The issue snapshot is every delivered dot: applied or buffered.
        snapshot = self.applied.snapshot()
        for buffered in self.pending:
            snapshot.add(*buffered)
        # Own dots are applied on issue, so they fill the frontier from 1.
        dot = (self.replica, self.applied.seen.get(self.replica, 0) + 1)
        deps: list = []
        pos = None
        if self.data_type == RPQ:
            if kind in ("increase", "remove") and elem in self.elems:
                win = _rpq_winner(self.elems[elem])
                if win is not None:
                    deps = [list(win.dot)]
        else:
            if kind == "insert":
                pos = self._generate_position(anchor, dot[1])
            else:
                deps = [list(self.elems[elem].ins.dot)]
        op = {
            "anchor": anchor,
            "arg": arg,
            "deps": sorted(deps, key=lambda rc: (rc[1], rc[0])),
            "dot": [dot[0], dot[1]],
            "id": elem,
            "kind": kind,
            "pos": [list(t) for t in pos] if pos is not None else None,
        }
        self._apply(op, snapshot)
        msg = {"ctx": snapshot.wire(), "op": op, "origin": self.replica}
        syncs = [
            {"dest": d, "msg": msg} for d in range(self.n) if d != self.replica
        ]
        return {"accepted": True, "syncs": syncs, "type": "Ack"}

    def _check_request_shape(self, req: dict):
        kind = req.get("kind")
        kinds = _RPQ_KINDS if self.data_type == RPQ else _LIST_KINDS
        if kind not in kinds:
            raise ProtocolViolation(f"kind {kind!r} not valid for {self.data_type}")
        elem = req.get("id")
        if not isinstance(elem, str) or not elem:
            raise ProtocolViolation("request id must be a non-empty string")
        arg = req.get("arg")
        if kind in ("add", "increase", "insert", "update"):
            if not _int(arg):
                raise ProtocolViolation(f"{kind} requires an integer arg")
        else:
            arg = None
        anchor = req.get("anchor")
        if kind != "insert":
            anchor = None
        elif anchor is not None and not isinstance(anchor, str):
            raise ProtocolViolation("insert anchor must be a string or null")
        return kind, elem, arg, anchor

    def _refuses(self, kind: str, elem: str, anchor) -> bool:
        """True if this replica must reject the request: a list insert
        of an id in use or after an anchor not existent here, or another
        list op on an id never seen here."""
        if self.data_type == RPQ:
            return False
        if kind != "insert":
            return elem not in self.elems
        if anchor is None:
            return elem in self.elems
        e = self.elems.get(anchor)
        return elem in self.elems or e is None or not self._list_existent(e)

    # -- sync delivery ---------------------------------------------------

    def _handle_sync(self, msg) -> dict:
        if not isinstance(msg, dict):
            raise ProtocolViolation("Sync frame carries no message object")
        op, ctx = self._check_sync_shape(msg)
        dot = (op["dot"][0], op["dot"][1])
        if self.applied.has(*dot) or dot in self.pending:
            raise DuplicateDelivery(
                f"dot {dot} delivered twice at replica {self.replica}"
            )
        if self._deps_applied(op):
            self._apply(op, ctx)
        elif self.bug2:
            # Assume-causal handling: the dot is consumed, the effect is
            # gone.
            self.applied.add(*dot)
        elif self.bug1 and op["kind"] == "readd":
            self._materialize_ghost(op, ctx)
        elif (
            self.bug4
            and self.data_type == LIST
            and op["kind"] in ("update", "remove", "readd")
        ):
            self._materialize_dummy(op, ctx)
            self._apply(op, ctx)
        else:
            self.pending[dot] = (op, ctx)
        self._flush()
        return {"accepted": True, "syncs": [], "type": "Ack"}

    def _check_sync_shape(self, msg: dict):
        op = msg.get("op")
        if not isinstance(op, dict):
            raise ProtocolViolation("sync message has no operation")
        dot = op.get("dot")
        if not _ints(dot, 2):
            raise ProtocolViolation("operation dot must be [replica, counter]")
        if not (0 <= dot[0] < self.n and dot[1] >= 1):
            raise ProtocolViolation(f"{dot} is no dot of replicas 0..{self.n - 1}")
        if dot[0] == self.replica:
            # Own dots are only ever issued here; one arriving from a
            # peer would collide with the next own dot.
            raise ProtocolViolation(f"replica {self.replica} was sent its own dot {dot}")
        kind = self._check_request_shape(op)[0]
        deps = op.get("deps", [])
        # a dep names a dot like the operation's own: one that was never
        # issued could never be applied, and the op would wait on it forever
        if not isinstance(deps, list) or not all(
            _ints(d, 2) and 0 <= d[0] < self.n and d[1] >= 1 for d in deps
        ):
            raise ProtocolViolation(
                f"operation deps must be [replica, counter] pairs of replicas 0..{self.n - 1}"
            )
        if kind == "insert":
            pos = op.get("pos")
            if not isinstance(pos, list) or not pos or not all(_ints(t, 3) for t in pos):
                raise ProtocolViolation(
                    "insert position must be [digit, replica, counter] triples"
                )
        ctx = msg.get("ctx")
        if not isinstance(ctx, dict):
            raise ProtocolViolation("sync message has no context")
        seen, extra = ctx.get("seen", {}), ctx.get("extra", [])
        # Decoded in the checking pass; a seen that is no object, or an
        # extra that is no array, is refused like one bad entry.  Like an
        # operation's dot, each names a replica 0..n-1 and a counter of
        # at least 1; a seen key is the replica's name as ``str`` writes it.
        decoded = _Ctx()
        for key, c in seen.items() if isinstance(seen, dict) else [(None, None)]:
            r = self._replica_names.get(key)
            if r is None or not (_int(c) and c >= 1):
                raise ProtocolViolation("context seen must map replica to counter")
            decoded.seen[r] = c
        for d in extra if isinstance(extra, list) else [None]:
            if not (_ints(d, 2) and 0 <= d[0] < self.n and d[1] >= 1):
                raise ProtocolViolation("context extra must be [replica, counter] pairs")
            decoded.extra.add((d[0], d[1]))
        return op, decoded

    def _deps_applied(self, op: dict) -> bool:
        return all(self.applied.has(r, c) for r, c in op.get("deps", []))

    def _flush(self) -> None:
        """Apply buffered operations to a fixpoint.  One that ``_apply``
        refuses is dropped, and the first refusal is raised once the
        fixpoint is reached."""
        refused = None
        while True:
            ready = None
            for dot in sorted(self.pending, key=_dot_order):
                op, ctx = self.pending[dot]
                if self._deps_applied(op):
                    ready = dot
                    break
            if ready is None:
                break
            op, ctx = self.pending.pop(ready)
            try:
                self._apply(op, ctx)
            except ProtocolViolation as exc:
                refused = refused or exc
        if refused is not None:
            raise refused

    # -- effects -----------------------------------------------------------

    def _apply(self, op: dict, ctx: _Ctx) -> None:
        """Apply one operation, or raise before changing any state."""
        dot = (op["dot"][0], op["dot"][1])
        kind = op["kind"]
        elem = op["id"]
        if self.data_type == LIST and kind != "insert" and elem not in self.elems:
            # Its deps were met but name another element's insert.
            raise ProtocolViolation(f"{kind} for {elem!r} applied before its insert")
        self.members.pop(elem, None)
        self.applied.add(*dot)
        if self.data_type == RPQ:
            e = self.elems.get(elem)
            if e is None:
                e = self.elems[elem] = _RpqElem()
            if kind == "add":
                e.adds.append(_Rec(dot, op["arg"], ctx, _survives(ctx, e.rems)))
            elif kind == "increase":
                e.incs.append(_Rec(dot, op["arg"], ctx, _survives(ctx, e.rems)))
            else:  # remove
                e.rems.append(dot)
                _kill(e.adds + e.incs, dot)
            return
        if kind == "insert":
            if elem in self.elems:
                return  # the first applied insert owns the element
            pos = tuple((d, r, c) for d, r, c in op["pos"])
            self._index_insert(pos, elem)
            self.elems[elem] = _ListElem(dot, pos, op["arg"], ctx)
            return
        e = self.elems[elem]
        if kind == "update":
            e.upds.append(_Rec(dot, op["arg"], ctx, _survives(ctx, e.rems)))
        elif kind == "readd":
            e.readds.append(_Rec(dot, None, ctx, _survives(ctx, e.rems)))
        else:  # remove
            e.rems.append(dot)
            _kill([e.ins, *e.upds, *e.readds], dot)

    def _materialize_ghost(self, op: dict, ctx: _Ctx) -> None:
        """bug1: accept a re-add for an element nobody inserted here.  Its
        position's stamp is one above the highest stamp held."""
        stamp = max((e.pos[-1][2] for e in self.elems.values()), default=0)
        last = None
        for _key, pos, elem in reversed(self.by_pos):
            if self._list_existent(self.elems[elem]):
                last = pos
                break
        pos = _gen_pos(last, None, self.replica, max(stamp, _GHOST_COUNTER_FLOOR) + 1)
        self.applied.add(*op["dot"])
        self._fabricate(op, pos, ctx)

    def _materialize_dummy(self, op: dict, ctx: _Ctx) -> None:
        """bug4: fabricate a placeholder instead of buffering."""
        if op["id"] not in self.elems:
            self._fabricate(op, ((BASE, 0, 0),), ctx)

    def _fabricate(self, op: dict, pos, ctx: _Ctx) -> None:
        """Create the element ``op`` names at ``pos``, with attribute 0
        and ``op``'s dot in place of its insert's, replacing any element
        of that id and its index entry."""
        old = self.elems.get(op["id"])
        if old is not None:
            self.by_pos.remove((self._index_key(old.pos), old.pos, op["id"]))
        self._index_insert(pos, op["id"])
        self.members.pop(op["id"], None)
        self.elems[op["id"]] = _ListElem((op["dot"][0], op["dot"][1]), pos, 0, ctx)

    # -- position index ----------------------------------------------------

    def _index_key(self, pos):
        if self.bug7:
            return tuple((d, -r, -c) for d, r, c in pos)
        return pos

    def _index_insert(self, pos, elem: str) -> None:
        insort(self.by_pos, (self._index_key(pos), pos, elem))

    def _generate_position(self, anchor, counter: int):
        """A position between the anchor and the first existent element
        indexed after it (or before every existent element if no anchor)."""
        left, start = None, 0
        if anchor is not None:
            left = self.elems[anchor].pos
            start = bisect_right(self.by_pos, self._index_key(left), key=lambda entry: entry[0])
        right = None
        for i in range(start, len(self.by_pos)):
            _key, pos, elem = self.by_pos[i]
            if self._list_existent(self.elems[elem]):
                right = pos
                break
        return _gen_pos(left, right, self.replica, counter)

    # -- read side -----------------------------------------------------------

    def _list_existent(self, e: _ListElem) -> bool:
        return e.ins.alive or any(rec.alive for rec in e.readds)

    def canonical_state(self) -> str:
        members = []
        for elem in sorted(self.elems):
            member = self.members.get(elem)
            if member is None:
                # '{"id":{...}}' less its outer braces
                member = canonical_json({elem: self._element_doc(self.elems[elem])})[1:-1]
                self.members[elem] = member
            members.append(member)
        return "".join((
            '{"ctx":', canonical_json(self.applied.wire()), ',"elements":{', ",".join(members),
            self._state_tail,
        ))

    def _element_doc(self, e) -> dict:
        if self.data_type == RPQ:
            win = _rpq_winner(e)
            last = _latest(e.adds)  # a removed element shows its last add
            value = win.val + sum(rec.val for rec in e.incs if rec.alive) if win else None
            return {
                "add_dot": list((win or last).dot) if last else None,
                "existence": "existent" if win else "once-existent" if last else "non-existent",
                "value": value,
            }
        existent = self._list_existent(e)
        attr = _latest([e.ins, *(rec for rec in e.upds if rec.alive)]).val
        return {
            "add_dot": [e.ins.dot[0], e.ins.dot[1]],
            "attr": attr if existent else None,
            "existence": "existent" if existent else "once-existent",
            "pos": [list(t) for t in e.pos],
        }


def serve_connection(server: ReplicaServer, sock) -> None:
    """Run one lockstep session over a connected socket until Shutdown
    or end-of-stream.  An error, or a reply too large for a frame, is
    answered with an Error frame and the session continues, leaving the
    driver to decide what to do with a broken replica.  A frame whose
    body is not a JSON object is read to its end before it is refused.
    A stream out of step (an oversized header, or a close mid-frame)
    ends the session, with an Error reply if the peer still reads; a
    peer that goes away before it reads a reply ends it quietly."""
    fs = FrameSocket(sock)

    def answer(reply: dict) -> None:
        try:
            fs.send(reply)
        except ProtocolViolation as exc:  # refused before a byte was sent
            fs.send({"error": str(exc), "type": "Error"})

    with suppress(OSError):  # the peer went away: there is no one to answer
        while True:
            try:
                obj = fs.recv()
            except MalformedFrame as exc:
                answer({"error": str(exc), "type": "Error"})
                continue
            except ProtocolViolation as exc:
                answer({"error": str(exc), "type": "Error"})
                return
            if obj is None:
                return
            answer(server.send(obj))
            if obj.get("type") == "Shutdown":
                return
