"""The pinned-verdict gate: every output the benchmark produces is compared
against the reference pinned in ``workloads.py``.

A check is a ``(name, ok)`` pair.  The self-tests feed the gate outputs
that are wrong on purpose (a replay against a flagged server, a pinned
count moved by one) and pass only when the gate rejects them, so a gate
that accepts everything cannot pass.
"""

from __future__ import annotations

import json

from workloads import AUX


def _replay_passes(summary: dict, cases: int) -> bool:
    return summary["cases"] == cases and summary["pass"] == cases


def check_outputs(pinned: dict, out: dict) -> list[tuple[str, bool]]:
    """Each pinned value must be reproduced exactly; a replay must pass
    every case the corpus holds."""
    checks = [(f"{key} == {value!r}", out.get(key) == value) for key, value in pinned.items()]
    if "replay" in out:
        checks.append(("replay all pass", _replay_passes(out["replay"], out["cases"])))
    return checks


def rejects(checks: list[tuple[str, bool]]) -> bool:
    return not all(ok for _, ok in checks)


def altered(pinned: dict) -> dict:
    """The pinned reference with its first count moved by one."""
    key = next(k for k, v in pinned.items() if type(v) is int)
    return {**pinned, key: pinned[key] + 1}


def self_test_altered(pinned: dict, out: dict) -> tuple[str, bool]:
    return (
        "self-test: an altered pinned count is a wrong verdict",
        rejects(check_outputs(altered(pinned), out)),
    )


def check_aux(out: dict) -> list[tuple[str, bool]]:
    """The small corpus: pinned bytes, a clean loopback replay, a socketpair
    replay whose summary is byte-identical to it, and a flagged replay
    that the gate must reject."""
    pinned = AUX["pinned"]
    checks = [(f"aux {name}", ok) for name, ok in check_outputs(pinned, out)]
    checks.append(("aux loopback replay all pass",
                   _replay_passes(json.loads(out["loopback"]), pinned["cases"])))
    checks.append(("aux socketpair summary == loopback summary",
                   out["socket"] == out["loopback"]))
    flagged = {"cases": out["cases"], "replay": json.loads(out["flagged"])}
    checks.append((f"self-test: replay with {AUX['bug_flag']} is a wrong verdict",
                   rejects(check_outputs({}, flagged))))
    return checks


def check_spans(expected: set, trace: dict) -> list[tuple[str, bool]]:
    """Span coverage: the predicted spans record calls, all others none."""
    checks = []
    for name, span in trace["spans"].items():
        want = name in expected
        label = "called" if want else "not called"
        checks.append((f"span {name} {label}", (span["calls"] > 0) == want))
    return checks
