"""Model checking and conformance testing for two replicated data types.

The package has three layers:

- a replica state machine (``replica``) for a replicated priority queue
  and a replicated ordered list, with remove-win conflict resolution and
  dependency buffering for out-of-order delivery;
- a bounded exhaustive explorer (``explorer``) that searches every
  schedule of a small system, checks convergence and structural
  invariants, and counts distinct states and terminal schedules exactly;
- a conformance pipeline (``testgen``, ``server``, ``harness``) that
  turns every terminal schedule into a JSONL test case and replays it
  against an independently implemented replica server over a framed
  JSON protocol, byte-comparing canonical states.
"""

from .dots import CausalContext, Dot
from .errors import (
    BadConfig,
    BudgetExceeded,
    CrdtCheckError,
    DuplicateDelivery,
    MalformedCase,
    NotEnabled,
    ProtocolViolation,
    UnknownElement,
    UnknownFlag,
)
from .explorer import (
    ExplorationConfig,
    ExplorationReport,
    Violation,
    enumerate_traces,
    explore,
)
from .harness import ReplaySummary, StressReport, replay_corpus, stress
from .operations import Operation, OperationRequest, SyncMessage
from .replica import Existence, ReplicaState, fresh_replica
from .server import ReplicaServer
from .testgen import TestCase, generate_corpus, iter_corpus

__version__ = "0.1.0"

__all__ = [
    "BadConfig",
    "BudgetExceeded",
    "CausalContext",
    "CrdtCheckError",
    "Dot",
    "DuplicateDelivery",
    "Existence",
    "ExplorationConfig",
    "ExplorationReport",
    "MalformedCase",
    "NotEnabled",
    "Operation",
    "OperationRequest",
    "ProtocolViolation",
    "ReplaySummary",
    "ReplicaServer",
    "ReplicaState",
    "StressReport",
    "SyncMessage",
    "TestCase",
    "UnknownElement",
    "UnknownFlag",
    "Violation",
    "enumerate_traces",
    "explore",
    "fresh_replica",
    "generate_corpus",
    "iter_corpus",
    "replay_corpus",
    "stress",
]
