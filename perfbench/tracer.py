"""Timing spans around crdtcheck's layer boundaries, installed from outside.

``Tracer.install`` replaces each function named in ``SPANS`` with a
wrapper that counts calls and accumulates inclusive and self time (self
time is the span's duration minus the time its child spans cover).  A
module-level function is replaced under every name any loaded crdtcheck
module binds it to, because ``from .positions import generate_between``
copies the reference at import time and a wrapper on ``positions`` alone
would never see the calls ``replica`` makes.  Methods are replaced on
their class.  Nothing under ``src/`` is edited.

Spans are aggregated per name in memory; per-call durations are kept
only for ``server.handle_frame``, whose median and 99th percentile are
reported with their sample count.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (span name, module, attribute path).  Two targets may share one span.
SPANS = (
    ("explorer.explore", "explorer", "explore"),
    ("explorer.state_digest", "explorer", "state_digest"),
    ("replica.canonical_key", "replica", "ReplicaState.canonical_key"),
    ("explorer._successors", "explorer", "_successors"),
    ("replica.issue", "replica", "ReplicaState.issue"),
    ("replica.deliver", "replica", "ReplicaState.deliver"),
    ("dots.ctx_add", "dots", "CausalContext.add"),
    ("explorer.invariants", "explorer", "state_violations"),
    ("explorer.invariants", "explorer", "terminal_violations"),
    ("replica.normalize", "replica", "ReplicaState.normalize"),
    ("replica.views", "replica", "ReplicaState.views"),
    ("replica.list_view", "replica", "list_view"),
    ("replica.rpq_view", "replica", "rpq_view"),
    ("positions.generate_between", "positions", "generate_between"),
    ("explorer.enumerate_traces", "explorer", "enumerate_traces"),
    ("testgen.generate_corpus", "testgen", "generate_corpus"),
    ("testgen.case_line", "testgen", "case_line"),
    ("testgen.parse_case_line", "testgen", "parse_case_line"),
    ("harness.replay_corpus", "harness", "replay_corpus"),
    ("harness.replay_case", "harness", "replay_case"),
    ("server.handle_frame", "server", "ReplicaServer.handle_frame"),
    ("wire.encode_frame", "wire", "encode_frame"),
    ("wire.send", "wire", "FrameSocket.send"),
    ("wire.recv", "wire", "FrameSocket.recv"),
    ("harness.stress", "harness", "stress"),
)

PACKAGE = "crdtcheck"
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))
SAMPLED = frozenset({"server.handle_frame"})


class Span:
    __slots__ = ("calls", "total_s", "self_s", "errors", "samples")

    def __init__(self, sampled: bool):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.samples: list[float] | None = [] if sampled else None


class Tracer:
    def __init__(self):
        self.spans = {name: Span(name in SAMPLED) for name in SPAN_NAMES}
        self.deliveries_buffered = 0
        self.max_position_depth = 0
        self.frame_bytes = 0
        self._stack: list[float] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every span target for the rest of the process's life."""
        hooks = {
            "replica.deliver": self._note_delivery,
            "positions.generate_between": self._note_position,
            "wire.encode_frame": self._note_frame,
        }
        for name, module, path in SPANS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(self.spans[name], original, hooks.get(name))
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod in self._loaded_modules():
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, alias, wrapped)

    @staticmethod
    def _loaded_modules():
        return [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def _wrap(self, span: Span, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - inner
                if not ok:
                    span.errors += 1
                if span.samples is not None:
                    span.samples.append(elapsed)
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counters at the span boundaries ---------------------------------

    def _note_delivery(self, args, state) -> None:
        if args[1].op.dot in state.pending:
            self.deliveries_buffered += 1

    def _note_position(self, args, pos) -> None:
        self.max_position_depth = max(self.max_position_depth, len(pos))

    def _note_frame(self, args, frame) -> None:
        self.frame_bytes += len(frame)

    # -- report ----------------------------------------------------------

    def report(self) -> dict:
        """Per-span calls, times and errors, plus the boundary counters."""
        spans = {}
        for name, span in self.spans.items():
            entry = {
                "calls": span.calls,
                "s": span.total_s,
                "self_s": span.self_s,
                "errors": span.errors,
            }
            if span.samples is not None:
                entry["samples"] = len(span.samples)
                if len(span.samples) >= 2:
                    cuts = statistics.quantiles(span.samples, n=100)
                    entry["p50_us"] = cuts[49] * 1e6
                    entry["p99_us"] = cuts[98] * 1e6
                else:
                    entry["p50_us"] = entry["p99_us"] = 0.0
            spans[name] = entry
        return {
            "spans": spans,
            "deliveries_buffered": self.deliveries_buffered,
            "max_position_depth": self.max_position_depth,
            "frame_bytes": self.frame_bytes,
        }
