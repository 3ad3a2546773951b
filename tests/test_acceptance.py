"""Acceptance gate: the eight checks this toolkit must pass, end to end.

Every test prints exactly one ``[acceptance] …: PASS/FAIL`` line so the
run log doubles as a checklist.  Expected numbers are either closed
forms (the 5**q schedule tree), hand-enumerated oracles written before
the implementation ran, or independent brute-force recomputations done
inside the test itself — never values copied from a previous run of the
code under test.

The genuinely long checks — the 5**10 single-replica sweep and the
reach checks (n=3 q=4, rpq n=2 q=5) — only run when CRDTCHECK_ACCEPT_LONG
is set; everything else stays in the default suite.  The reach checks'
distinct-state and visited counts are regression pins of this
implementation (the non-deduplicating walk cannot cross-check them at
that size); their priority-queue schedule counts are closed forms.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import random
import resource
import time

import pytest

from conftest import schedule_has_causal_inversion
from crdtcheck.explorer import (
    ClientEvent,
    DeliverEvent,
    ExplorationConfig,
    explore,
)
from crdtcheck.harness import replay_corpus
from crdtcheck.operations import OperationRequest
from crdtcheck.positions import generate_between
from crdtcheck.replica import fresh_replica
from crdtcheck.testgen import generate_corpus


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def cfg(**kw) -> ExplorationConfig:
    return ExplorationConfig(**kw)


# -- 1. exhaustive trace counts, single replica ------------------------------


def test_criterion_1_single_replica_trace_counts():
    got4 = explore(cfg(data_type="rpq", n=1, q=4)).terminal_traces
    got6 = explore(cfg(data_type="rpq", n=1, q=6)).terminal_traces
    ok = got4 == 5**4 and got6 == 5**6
    report(
        "1 exact single-replica counts",
        ok,
        f"q=4: {got4} (want 625), q=6: {got6} (want 15625), tolerance exact",
    )


@pytest.mark.skipif(
    not os.environ.get("CRDTCHECK_ACCEPT_LONG"),
    reason="5**10 sweep takes minutes; set CRDTCHECK_ACCEPT_LONG=1 to run",
)
def test_criterion_1_long_run_ten_slots():
    t0 = time.monotonic()
    got = explore(cfg(data_type="rpq", n=1, q=10)).terminal_traces
    minutes = (time.monotonic() - t0) / 60
    ok = got == 5**10 and minutes < 30
    report(
        "1L ten-slot long run",
        ok,
        f"q=10: {got} (want 9765625) in {minutes:.1f} min (budget 30)",
    )


# -- 2. no violations across the standard sweep ------------------------------


def test_criterion_2_standard_sweep_is_violation_free():
    sweep = []
    for data_type in ("rpq", "list"):
        sweep += [cfg(data_type=data_type, n=1, q=q) for q in range(1, 7)]
        sweep += [cfg(data_type=data_type, n=2, q=q) for q in (2, 3, 4)]
        sweep += [cfg(data_type=data_type, n=3, q=3)]

    bad: list[str] = []
    slow: list[str] = []
    for c in sweep:
        t0 = time.monotonic()
        rep = explore(c)
        wall = time.monotonic() - t0
        label = f"{c.data_type} n={c.n} q={c.q}"
        if rep.violations or not rep.exhaustive:
            bad.append(label)
        if c.n == 3 and wall > 600:
            slow.append(f"{label} took {wall:.0f}s")
    ok = not bad and not slow
    report(
        "2 standard sweep clean",
        ok,
        f"{len(sweep)} configurations, violations in {bad or 'none'}, "
        f"over budget: {slow or 'none'}",
    )


# Linear extensions of the happens-before tree of n=3 q=4: client events
# C0 < C1 < C2 < C3, each followed by its two deliveries.  A rooted
# forest of N nodes has N! / prod(subtree sizes) of them; C3..C0 root
# subtrees of 3, 6, 9 and 12 events.
_RPQ_N3Q4_SCHEDULES = 5**4 * math.factorial(12) // (3 * 6 * 9 * 12)
# The same count for n=2 q=5: C4..C0 root subtrees of 2, 4, 6, 8 and 10
# events.
_RPQ_N2Q5_SCHEDULES = 5**5 * math.factorial(10) // (2 * 4 * 6 * 8 * 10)


@pytest.mark.skipif(
    not os.environ.get("CRDTCHECK_ACCEPT_LONG"),
    reason="three searches of 8-15 s each; set CRDTCHECK_ACCEPT_LONG=1 to run",
)
@pytest.mark.parametrize(
    "data_type, n, q, distinct, visited, schedules",
    [
        ("rpq", 3, 4, 1_242_621, 4_054_226, _RPQ_N3Q4_SCHEDULES),
        ("list", 3, 4, 883_881, 2_535_611, 58_616_992),
        ("rpq", 2, 5, 947_411, 1_803_561, _RPQ_N2Q5_SCHEDULES),
    ],
)
def test_criterion_2_long_reach(data_type, n, q, distinct, visited, schedules):
    t0 = time.monotonic()
    rep = explore(cfg(data_type=data_type, n=n, q=q))
    wall = time.monotonic() - t0  # reported, not bounded
    got = (rep.distinct_states, rep.states_visited, rep.terminal_traces)
    # ru_maxrss is in KiB on Linux: the peak of this whole test process
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = (
        rep.exhaustive and not rep.violations
        and got == (distinct, visited, schedules) and peak_mib < 1024
    )
    report(
        f"2L {data_type} n={n} q={q} reach",
        ok,
        f"{got} (want {(distinct, visited, schedules)}), "
        f"{len(rep.violations)} violation(s), peak RSS {peak_mib:.0f} MiB "
        f"(budget 1024), search {wall:.1f} s",
    )


# -- 3. the re-add defect, with a hand-enumerated oracle ----------------------


def _stamped_insert_remove_readd():
    """The 3-op scenario: one origin inserts, removes, then re-adds."""
    origin = fresh_replica("list", 0)
    msgs = []
    for r in (
        OperationRequest("insert", "e1", 10),
        OperationRequest("remove", "e1"),
        OperationRequest("readd", "e1"),
    ):
        origin, m = origin.issue(r)
        msgs.append(m)
    return origin, msgs


def test_criterion_3_readd_defect_and_counterexample_shape():
    origin, (ins, rem, readd) = _stamped_insert_remove_readd()

    # Hand-enumerated oracle: all six delivery orders of the three
    # messages at a re-add-accepting destination.  Expected divergence
    # was worked out by hand: the destination fabricates state exactly
    # when the re-add arrives before its insert.
    orders = [
        ((ins, rem, readd), False),
        ((ins, readd, rem), False),
        ((rem, ins, readd), False),
        ((rem, readd, ins), True),
        ((readd, ins, rem), True),
        ((readd, rem, ins), True),
    ]
    oracle_ok = True
    for order, want_diverged in orders:
        dest = fresh_replica("list", 1, bug_flags=frozenset(["bug1-readd-accept"]))
        for m in order:
            dest = dest.deliver(m)
        diverged = dest.normalize() != origin.normalize()
        oracle_ok = oracle_ok and (diverged == want_diverged)

    # The explorer must find the same defect from scratch.
    c = cfg(data_type="list", n=2, q=3, bug_flags=frozenset(["bug1-readd-accept"]))
    rep = explore(c)
    conv = [v for v in rep.violations if v.invariant == "convergence"]
    shortest = min(conv, key=lambda v: len(v.schedule)) if conv else None

    shape_ok = False
    if shortest is not None:
        # shape: at some destination the re-add's sync message arrives
        # before the original insert's sync message
        kinds = {}
        for ev in shortest.schedule:
            if isinstance(ev, ClientEvent):
                kinds[(ev.target, len([
                    e for e in shortest.schedule[: shortest.schedule.index(ev) + 1]
                    if isinstance(e, ClientEvent) and e.target == ev.target
                ]))] = ev.req.kind
        for dest in range(c.n):
            arrivals = [
                kinds.get((ev.origin, ev.counter))
                for ev in shortest.schedule
                if isinstance(ev, DeliverEvent) and ev.dest == dest
            ]
            if (
                "readd" in arrivals
                and "insert" in arrivals
                and arrivals.index("readd") < arrivals.index("insert")
            ):
                shape_ok = True

    length_ok = shortest is not None and len(shortest.schedule) <= 7
    ok = oracle_ok and bool(conv) and length_ok and shape_ok
    report(
        "3 re-add defect",
        ok,
        f"oracle agreed on all 6 orders: {oracle_ok}; "
        f"{len(conv)} convergence counterexample(s); shortest "
        f"{len(shortest.schedule) if shortest else '—'} events (budget 7); "
        f"re-add-before-insert shape: {shape_ok}",
    )


# -- 4. the causal-assumption defect ------------------------------------------


def test_criterion_4_causal_assumption():
    bug2 = frozenset(["bug2-assume-causal"])
    safe = explore(
        cfg(data_type="rpq", n=3, q=3, bug_flags=bug2, channel="causal")
    )
    broken = explore(
        cfg(data_type="rpq", n=3, q=3, bug_flags=bug2, channel="arbitrary")
    )
    inversion = any(
        schedule_has_causal_inversion(
            cfg(data_type="rpq", n=3, q=3, bug_flags=bug2), v.schedule,
        )
        for v in broken.violations
    )
    ok = not safe.violations and bool(broken.violations) and inversion
    report(
        "4 causal assumption",
        ok,
        f"causal channel: {len(safe.violations)} violation(s) (want 0); "
        f"arbitrary: {len(broken.violations)} (want ≥1); "
        f"dependents-before-predecessor shape found: {inversion}",
    )


# -- 5. conformance corpora and the server-only defects -----------------------


def test_criterion_5_conformance_suite():
    parts = []
    ok = True
    for data_type in ("rpq", "list"):
        c = cfg(data_type=data_type, n=2, q=3)
        buf = io.StringIO()
        generate_corpus(c, buf)
        text = buf.getvalue()

        clean = replay_corpus(c, io.StringIO(text))
        ok = ok and clean.clean and clean.cases > 0
        parts.append(f"{data_type}: {clean.passed}/{clean.cases} pass")

        if data_type == "list":
            model_rep = explore(c)
            ok = ok and not model_rep.violations
            for flag in ("bug4-dummy-position", "bug7-idgen-order"):
                buggy = replay_corpus(c, io.StringIO(text), bug_flags=(flag,))
                ok = ok and buggy.diverged >= 1
                parts.append(f"{flag}: {buggy.diverged} diverged")
            parts.append(
                f"flagless model: {len(model_rep.violations)} violation(s)"
            )
    report("5 conformance corpora", ok, "; ".join(parts))


# -- 6. permutation-commutativity oracle ---------------------------------------


def _random_op_set(rng: random.Random, data_type: str):
    """Three requests (slots r0, r1, r0) valid under every interleaving.

    List requests only ever reference ids born at the same replica, so
    validity cannot depend on what was delivered when.
    """
    if data_type == "rpq":
        pool = [
            OperationRequest("add", "e", 10),
            OperationRequest("add", "e", 20),
            OperationRequest("increase", "e", -3),
            OperationRequest("increase", "e", 4),
            OperationRequest("remove", "e"),
        ]
        return tuple(rng.choice(pool) for _ in range(3))
    first = OperationRequest("insert", "a1", rng.choice((10, 20)))
    second = OperationRequest("insert", "b1", rng.choice((10, 20)))
    third = rng.choice(
        [
            OperationRequest("insert", "a2", rng.choice((10, 20))),
            OperationRequest("insert", "a2", rng.choice((10, 20)), anchor="a1"),
            OperationRequest("update", "a1", rng.choice((10, 20))),
            OperationRequest("remove", "a1"),
            OperationRequest("readd", "a1"),
        ]
    )
    return (first, second, third)


def _oracle_converges(data_type: str, ops) -> bool:
    """Brute-force: stamp the three ops once (no cross-delivery), then
    apply the foreign messages in every per-replica order and demand one
    common terminal state."""
    r0 = fresh_replica(data_type, 0)
    r1 = fresh_replica(data_type, 1)
    r0, m0 = r0.issue(ops[0])
    r1, m1 = r1.issue(ops[1])
    r0, m2 = r0.issue(ops[2])

    finals = set()
    for order in itertools.permutations([m0, m2]):
        dest = r1
        for m in order:
            dest = dest.deliver(m)
        finals.add(dest.normalize())
    origin = r0.deliver(m1)
    finals.add(origin.normalize())
    return len(finals) == 1


def test_criterion_6_permutation_oracle_agrees_with_the_explorer():
    rng = random.Random(1789)
    agreements = 0
    disagreements = []
    for i in range(20):
        data_type = "rpq" if i % 2 == 0 else "list"
        ops = _random_op_set(rng, data_type)
        oracle_converged = _oracle_converges(data_type, ops)
        rep = explore(
            cfg(
                data_type=data_type, n=2, q=3,
                pinned_ops=tuple((r,) for r in ops),
            )
        )
        explorer_converged = not any(
            v.invariant == "convergence" for v in rep.violations
        )
        if oracle_converged == explorer_converged:
            agreements += 1
        else:
            disagreements.append((data_type, ops))
    ok = agreements == 20
    report(
        "6 permutation oracle",
        ok,
        f"{agreements}/20 op-sets agree with the explorer"
        + (f"; first disagreement: {disagreements[0]}" if disagreements else ""),
    )


# -- 7. bit-for-bit determinism -------------------------------------------------


def test_criterion_7_byte_determinism():
    import json

    c = cfg(data_type="list", n=2, q=3)
    gen_a, gen_b = io.StringIO(), io.StringIO()
    generate_corpus(c, gen_a)
    generate_corpus(c, gen_b)
    corpora_equal = gen_a.getvalue().encode() == gen_b.getvalue().encode()

    def summary_bytes() -> bytes:
        s = replay_corpus(c, io.StringIO(gen_a.getvalue()))
        return json.dumps(s.as_json(), sort_keys=True).encode()

    replays_equal = summary_bytes() == summary_bytes()
    ok = corpora_equal and replays_equal
    report(
        "7 determinism",
        ok,
        f"generated corpora byte-identical: {corpora_equal}; "
        f"replay summaries byte-identical: {replays_equal}",
    )


# -- 8. position identifier suite ------------------------------------------------


def test_criterion_8_position_suite():
    rng = random.Random(0xFEED)
    ordered: list = []
    violations = 0
    seen = set()
    for counter in range(1, 100_001):
        i = rng.randrange(len(ordered) + 1)
        left = ordered[i - 1] if i > 0 else None
        right = ordered[i] if i < len(ordered) else None
        pos = generate_between(left, right, rng.randrange(4), counter)
        if left is not None and not left < pos:
            violations += 1
        if right is not None and not pos < right:
            violations += 1
        if pos in seen:
            violations += 1
        seen.add(pos)
        ordered.insert(i, pos)
    total_order_ok = all(
        ordered[i] < ordered[i + 1] for i in range(len(ordered) - 1)
    )

    # sequential inserts through a real replica read back in order
    rep = fresh_replica("list", 0)
    prev = None
    for k in range(1, 1001):
        rep, _ = rep.issue(
            OperationRequest("insert", f"e{k}", 10, anchor=prev)
        )
        prev = f"e{k}"
    read_back = [e for e, _ in rep.query()]
    sequence_ok = read_back == [f"e{k}" for k in range(1, 1001)]

    ok = violations == 0 and total_order_ok and sequence_ok
    report(
        "8 position suite",
        ok,
        f"100000 random generations, {violations} betweenness/uniqueness "
        f"violation(s); total order holds: {total_order_ok}; "
        f"1000 sequential inserts read back in order: {sequence_ok}",
    )
