"""Conformance-corpus generation and parsing.

A corpus is JSON Lines: one self-contained test case per line, in the
exact order the depth-first walk emits terminal schedules, so the same
configuration always produces byte-identical output.

Line shape (field order fixed):

    {"v": 1,
     "case":  sha-256 hex over the serialized schedule,
     "cfg":   configuration fingerprint the schedule was generated for,
     "sched": [["C", slot, request, target] | ["D", dest, origin, counter], ...],
     "oracle": per-replica canonical state strings at the end}

The ``case`` id is recomputed on parse, so a hand edit must recompute
it, and the harness still rejects a case that is no run of its config.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import IO, Iterator

from .errors import BadConfig, BudgetExceeded, MalformedCase
from .explorer import (
    ExplorationConfig,
    config_fingerprint,
    enumerate_traces,
    event_from_wire,
    event_wire,
)
from .wire import compact_json

CORPUS_VERSION = 1


@dataclass(frozen=True)
class TestCase:
    case_id: str
    fingerprint: str
    schedule: tuple
    oracle: tuple[str, ...]  # canonical state per replica, in replica order


def _schedule_digest(sched_wire: list) -> str:
    return hashlib.sha256(compact_json(sched_wire).encode("utf-8")).hexdigest()


def case_line(fingerprint: str, schedule: tuple, oracle: tuple[str, ...]) -> str:
    """One corpus line; its case id hashes the same event encoding the
    line carries."""
    sched = [event_wire(ev) for ev in schedule]
    doc = {
        "v": CORPUS_VERSION,
        "case": _schedule_digest(sched),
        "cfg": fingerprint,
        "sched": sched,
        "oracle": list(oracle),
    }
    return compact_json(doc)


def generate_corpus(
    cfg: ExplorationConfig,
    out: IO[str],
    *,
    limit: int | None = None,
) -> int:
    """Write every terminal schedule of ``cfg`` as one corpus line.

    Returns the number of cases written.  Raises ``BadConfig`` for a
    ``limit`` that is not None or a non-negative ``int`` and
    ``BudgetExceeded`` when the configuration's state cap stops the walk
    early — a partial corpus is not a corpus.
    """
    if limit is not None and type(limit) is not int:  # not a bool, not 2.5
        raise BadConfig(f"case limit must be an integer, got {limit!r}")
    if limit is not None and limit < 0:
        raise BadConfig(f"case limit must not be negative, got {limit}")
    fingerprint = config_fingerprint(cfg)
    count = 0

    class _Done(Exception):
        pass

    def emit(schedule: tuple, oracle: tuple[str, ...]) -> None:
        nonlocal count
        if limit is not None and count >= limit:
            raise _Done
        out.write(case_line(fingerprint, schedule, oracle))
        out.write("\n")
        count += 1

    try:
        result = enumerate_traces(cfg, emit)
    except _Done:
        return count
    if not result.exhaustive:
        raise BudgetExceeded(
            f"state cap {cfg.state_cap} hit after {count} emitted case(s)"
        )
    return count


def parse_case_line(lineno: int, line: str) -> TestCase:
    """Parse one corpus line; raises ``MalformedCase`` naming the bad field."""
    try:
        obj = json.loads(line)
    except ValueError as exc:  # bad JSON, or an integer too long to parse
        raise MalformedCase(lineno, "json", str(exc)) from None
    except RecursionError:
        raise MalformedCase(lineno, "json", "nests too deeply") from None
    if not isinstance(obj, dict):
        raise MalformedCase(lineno, "json", "not an object")
    version = obj.get("v")
    if type(version) is not int or version != CORPUS_VERSION:  # not true, not 1.0
        raise MalformedCase(lineno, "v", f"unsupported version {version!r}")
    case_id = obj.get("case")
    if not isinstance(case_id, str):
        raise MalformedCase(lineno, "case", "missing or not a string")
    fingerprint = obj.get("cfg")
    if not isinstance(fingerprint, str):
        raise MalformedCase(lineno, "cfg", "missing or not a string")
    sched_wire = obj.get("sched")
    if not isinstance(sched_wire, list):
        raise MalformedCase(lineno, "sched", "missing or not an array")
    events = []
    for i, item in enumerate(sched_wire):
        try:
            events.append(event_from_wire(item))
        except ValueError as exc:
            raise MalformedCase(lineno, "sched", f"event {i}: {exc}") from None
    oracle = obj.get("oracle")
    if (
        not isinstance(oracle, list)
        or not oracle
        or not all(isinstance(s, str) for s in oracle)
    ):
        raise MalformedCase(lineno, "oracle", "missing or not an array of strings")
    if case_id != _schedule_digest(sched_wire):
        raise MalformedCase(lineno, "case", "id does not match the schedule")
    return TestCase(case_id, fingerprint, tuple(events), tuple(oracle))


def iter_corpus(stream: IO[str]) -> Iterator[TestCase]:
    """Yield test cases from a JSONL stream, skipping blank lines."""
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        yield parse_case_line(lineno, line)
