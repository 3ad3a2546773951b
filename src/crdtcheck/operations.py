"""Client requests, broadcast operations, and sync messages.

A *request* is what a client hands to one replica: just the kind and its
arguments.  The replica that accepts a request stamps it into an
*operation*: the request plus the fresh dot, the dependency dots that
must be applied before the operation may take effect elsewhere, and —
for list inserts — the position generated at the origin, so that no
other replica ever re-derives it.  A *sync message* wraps the operation
with its origin and the origin's causal context snapshot from just
before the request was applied; the snapshot is what remote replicas
use to decide which operations were concurrent.
"""

from __future__ import annotations

import hashlib
import marshal
from dataclasses import dataclass, field

from .dots import CausalContext, Dot
from .positions import Position, position_wire

RPQ = "rpq"
LIST = "list"

RPQ_KINDS = ("add", "increase", "remove")
LIST_KINDS = ("insert", "update", "remove", "readd")


def canonical_digest(canonical: tuple) -> bytes:
    """16-byte digest of a canonical value.  marshal version 2 writes no
    back-references and no interning flags, so the bytes depend on the
    value alone, not on which of its parts happen to be shared objects."""
    return hashlib.blake2b(marshal.dumps(canonical, 2), digest_size=16).digest()


@dataclass(frozen=True, slots=True)
class OperationRequest:
    kind: str
    elem: str
    arg: int | None = None
    anchor: str | None = None  # list insert only; None means list head

    def sort_key(self) -> tuple:
        return (self.kind, self.elem, self.arg if self.arg is not None else -1,
                self.anchor if self.anchor is not None else "")

    def as_wire(self) -> dict:
        return {"anchor": self.anchor, "arg": self.arg, "id": self.elem, "kind": self.kind}


@dataclass(frozen=True, slots=True)
class Operation:
    kind: str
    elem: str
    dot: Dot
    arg: int | None = None
    anchor: str | None = None
    pos: Position | None = None  # origin-generated, list insert only
    deps: frozenset[Dot] = field(default_factory=frozenset)

    def as_wire(self) -> dict:
        return {
            "anchor": self.anchor,
            "arg": self.arg,
            "deps": [d.as_wire() for d in sorted(self.deps)],
            "dot": self.dot.as_wire(),
            "id": self.elem,
            "kind": self.kind,
            "pos": position_wire(self.pos) if self.pos is not None else None,
        }

    def canonical(self) -> tuple:
        return (self.kind, self.elem, self.dot.key(), self.arg, self.anchor, self.pos,
                tuple(sorted(d.key() for d in self.deps)))


@dataclass(frozen=True, slots=True)
class SyncMessage:
    origin: int
    op: Operation
    ctx: CausalContext  # origin's delivered set just before the op
    # Cached ``digest()``; ``replace`` resets it instead of copying it.
    _digest: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def as_wire(self) -> dict:
        return {"ctx": self.ctx.as_wire(), "op": self.op.as_wire(), "origin": self.origin}

    def canonical(self) -> tuple:
        return (self.origin, self.op.canonical(), self.ctx.canonical())

    def digest(self) -> bytes:
        if self._digest is None:
            object.__setattr__(self, "_digest", canonical_digest(self.canonical()))
        return self._digest

    def __hash__(self) -> int:
        return hash(self.digest())
