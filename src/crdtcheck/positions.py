"""Dense position identifiers for the replicated list.

A position is a non-empty tuple of triples ``(digit, replica, counter)``.
Positions are compared as plain Python tuples, which yields exactly the
intended order: lexicographic over triples, where triples compare by
digit, then replica, then counter, and a strict prefix sorts before any
extension of it.

``generate_between`` produces a fresh position strictly between two
bounds (``None`` stands for the virtual minimum on the left and the
virtual maximum on the right).  Digits live in ``[0, BASE)`` and new
digits are taken at the midpoint of the available gap; when the gap at
a level is too tight the generator descends one level, walking along
the left bound.  The last triple of a generated position always carries
the caller's ``(replica, counter)``, which makes positions globally
unique because each replica uses each counter value once.

## Invariants

- betweenness: ``left < generate_between(left, right, r, c) < right``
- uniqueness: distinct ``(replica, counter)`` stamps yield distinct
  positions, even for identical bounds
- denseness: any gap between two generated positions admits another
  position, for every caller identity

Denseness needs one structural rule: digit ``0`` never terminates a
position.  Midpoint picks start at digit 1, and when a gap offers only
digit 0 the generator emits a *padding* triple ``(0, replica, counter)``
and finishes one level deeper.  Without the rule, a position such as
``left + ((0, r, c),)`` would leave no room between ``left`` and itself
for a caller whose ``(replica, counter)`` sorts above ``(r, c)``.
"""

from __future__ import annotations

BASE = 64

Triple = tuple[int, int, int]
Position = tuple[Triple, ...]


def generate_between(
    left: Position | None,
    right: Position | None,
    replica: int,
    counter: int,
) -> Position:
    """Return a fresh position strictly between ``left`` and ``right``.

    ``left=None`` means the virtual minimum, ``right=None`` the virtual
    maximum.  Raises ``ValueError`` when the bounds are not strictly
    ordered.
    """
    if left is not None and right is not None and not left < right:
        raise ValueError(f"bounds not ordered: {left!r} >= {right!r}")

    path: list[Triple] = []
    i = 0
    while True:
        l_trip = left[i] if left is not None and i < len(left) else None
        if right is not None:
            assert i < len(right), "right bound exhausted mid-walk"
            r_trip = right[i]
            hi = r_trip[0]
        else:
            r_trip = None
            hi = BASE

        # Final digits never use 0; see module docstring.
        d_min = max((l_trip[0] + 1) if l_trip is not None else 0, 1)
        d_max = hi - 1
        if d_min <= d_max:
            path.append(((d_min + d_max) // 2, replica, counter))
            return tuple(path)

        if l_trip is not None:
            # Descend along the left bound.  Once the copied triple sits
            # strictly below the right bound, the right constraint is met
            # for good and the bound is dropped.
            path.append(l_trip)
            if l_trip != r_trip:
                right = None
        elif hi == 1:
            # Only digit 0 fits; emit a padding triple and finish below.
            path.append((0, replica, counter))
            right = None
        else:
            # hi == 0: the right bound runs through a padding triple.
            # Copy it; padding triples are never final, so the walk
            # continues inside the right bound.
            assert r_trip is not None
            path.append(r_trip)
        i += 1


def position_wire(pos: Position) -> list[list[int]]:
    return [list(t) for t in pos]
