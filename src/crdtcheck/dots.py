"""Dots and causal contexts.

A dot is the globally unique id of one client operation: ``(replica,
counter)``, where each replica stamps its own operations with counters
1, 2, 3, ...  Dots are ordered by ``(counter, replica)`` so that any two
dots compare, which gives deterministic winners wherever a tie between
concurrent operations has to be broken.

A causal context summarises a *set* of dots.  Because a replica can
receive dots from the same origin out of order, the summary is a
contiguous frontier per origin plus an overflow set of dots that sit
beyond a gap; ``add`` compacts the overflow back into the frontier as
gaps fill.  Two contexts are equal iff they describe the same dot set,
regardless of arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, order=True, slots=True)
class Dot:
    # order=True compares field-by-field, so counter must come first:
    # dots are ordered by (counter, replica).
    counter: int
    replica: int

    @staticmethod
    def of(replica: int, counter: int) -> "Dot":
        return Dot(counter=counter, replica=replica)

    def as_wire(self) -> list[int]:
        return [self.replica, self.counter]

    def key(self) -> tuple[int, int]:
        """Plain-tuple form for canonical keys and stable sorting."""
        return (self.counter, self.replica)


class CausalContext:
    """An immutable summary of a set of dots.

    ``seen`` maps replica index to the highest counter such that every
    counter up to it is in the set; ``extra`` holds dots past a gap.
    All mutators return a new context.  The constructor keeps ``seen``
    without copying it, so contexts may share one dict: no one may
    change it afterwards.
    """

    __slots__ = ("seen", "extra", "_canon")

    def __init__(self, seen: dict[int, int] | None = None, extra: frozenset[Dot] = frozenset()):
        self.seen: dict[int, int] = {} if seen is None else seen
        self.extra: frozenset[Dot] = extra
        self._canon: tuple | None = None

    def contains(self, dot: Dot) -> bool:
        return dot.counter <= self.seen.get(dot.replica, 0) or dot in self.extra

    def add(self, dot: Dot) -> "CausalContext":
        if self.contains(dot):
            return self
        replica, top = dot.replica, dot.counter
        if top != self.seen.get(replica, 0) + 1:
            return CausalContext(self.seen, self.extra | {dot})
        # The dot extends its origin's frontier: absorb the run it closes.
        if not self.extra:
            return CausalContext({**self.seen, replica: top})
        run = set()
        while (nxt := Dot(top + 1, replica)) in self.extra:
            run.add(nxt)
            top += 1
        return CausalContext({**self.seen, replica: top}, self.extra - run if run else self.extra)

    def iter_dots(self) -> Iterator[Dot]:
        for replica, top in self.seen.items():
            for counter in range(1, top + 1):
                yield Dot(counter, replica)
        yield from self.extra

    def canonical(self) -> tuple:
        if self._canon is None:
            self._canon = (
                tuple(sorted(self.seen.items())),
                tuple(sorted(d.key() for d in self.extra)),
            )
        return self._canon

    def as_wire(self) -> dict:
        return {
            "seen": {str(r): c for r, c in sorted(self.seen.items())},
            "extra": [d.as_wire() for d in sorted(self.extra)],
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalContext):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"CausalContext(seen={self.seen!r}, extra={set(self.extra)!r})"


EMPTY_CONTEXT = CausalContext()
