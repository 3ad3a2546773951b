"""Helpers the tests share; nothing under ``src/`` needs them.

Import them by name (``from conftest import enabled_events``): pytest
puts this directory on ``sys.path``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from crdtcheck.dots import CausalContext, Dot
from crdtcheck.errors import NotEnabled
from crdtcheck.explorer import (
    CHANNEL_CAUSAL,
    ExplorationConfig,
    _successors,
    replay_schedule,
)


def context_from_dots(dots: Iterable[Dot]) -> CausalContext:
    """The causal context of a dot set, built by ``add`` in sorted order."""
    ctx = CausalContext()
    for d in sorted(dots):
        ctx = ctx.add(d)
    return ctx


def enabled_events(cfg: ExplorationConfig, gs: tuple) -> list:
    """All events enabled in ``gs``, in deterministic sorted order."""
    return [ev for ev, _succ in _successors(cfg, gs)]


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


class ScriptedSocket:
    """Stands in for a socket: each ``recv`` returns the next chunk."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def recv(self, _size):
        return self.chunks.pop(0) if self.chunks else b""
