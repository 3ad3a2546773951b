"""Exception types shared across the toolkit.

Every error that crosses a module boundary gets a named class so callers
can match on type instead of message text.
"""

from __future__ import annotations


class CrdtCheckError(Exception):
    """Base class for all toolkit errors."""


class BadConfig(CrdtCheckError):
    """An exploration or run configuration is structurally invalid."""


class UnknownElement(CrdtCheckError):
    """A client request references an id this replica has never seen."""


class DuplicateDelivery(CrdtCheckError):
    """A sync message carrying an already-delivered dot was handed in again."""


class NotEnabled(CrdtCheckError):
    """An event was stepped that is not enabled in the given global state."""


class BudgetExceeded(CrdtCheckError):
    """A state-count budget was exhausted mid-exploration.

    ``report`` holds whatever partial exploration report was accumulated
    before the budget ran out (may be None for non-search callers).
    """

    def __init__(self, msg: str, report=None):
        self.report = report
        super().__init__(msg)


class MalformedCase(CrdtCheckError):
    """A corpus line failed to parse; carries the line number and field."""

    def __init__(self, lineno: int, field: str, detail: str = ""):
        self.lineno = lineno
        self.field = field
        msg = f"line {lineno}: bad field {field!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ScheduleUnsatisfiable(CrdtCheckError):
    """A replayed schedule asked to deliver a message nobody sent."""


class ProtocolViolation(CrdtCheckError):
    """A frame breaks the lockstep protocol: a replica server got one
    it cannot handle, or the harness got a malformed reply."""


class MalformedFrame(ProtocolViolation):
    """A whole frame arrived but its body is not a JSON object.  The
    frame has been read to its end, so the stream is still in step."""


class UnknownFlag(CrdtCheckError):
    """A bug-injection flag is not in the catalog."""
