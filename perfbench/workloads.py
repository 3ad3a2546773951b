"""The benchmark's workloads and the verdicts pinned for them.

Plain data only: ``run.py`` reads this table without importing crdtcheck,
and ``child.py`` builds each workload's inputs from it.

``spans`` is the set of traced functions (see ``tracer.SPANS``) that must
record at least one call on the workload; every other span must record
none.  The predicted zeros are part of the check: ``positions.*`` on the
priority queue, ``wire.*`` on the loopback stress session, and the
digest and dedup spans on the single-replica walk, where ``explore``
takes the depth-first path.
"""

from __future__ import annotations

STRESS_ROUNDS = 40
STRESS_OPS_PER_ROUND = 50

# Model-side spans every list workload touches.
_LIST_MODEL = {
    "replica.issue", "dots.ctx_add", "replica.normalize", "replica.views",
    "replica.list_view", "positions.generate_between",
}

WORKLOADS = {
    "explore-rpq-n3q3": {
        "kind": "explore",
        "config": {"data_type": "rpq", "n": 3, "q": 3, "channel": "arbitrary"},
        "pinned": {
            "distinct_states": 27621,
            "states_visited": 71726,
            "terminal_traces": 280000,
            "violations": 0,
            "exhaustive": True,
        },
        "spans": {
            "explorer.explore", "explorer.state_digest", "replica.canonical_key",
            "explorer._successors", "replica.issue", "replica.deliver",
            "dots.ctx_add", "explorer.invariants", "replica.normalize",
            "replica.views", "replica.rpq_view",
        },
    },
    "explore-list-n1q5": {
        "kind": "explore",
        "config": {"data_type": "list", "n": 1, "q": 5, "channel": "arbitrary"},
        "pinned": {
            "distinct_states": 45943,
            "states_visited": 45943,
            "terminal_traces": 43312,
            "violations": 0,
            "exhaustive": True,
        },
        # One replica sends no messages, so replica.deliver stays at zero.
        "spans": _LIST_MODEL | {
            "explorer.explore", "explorer.enumerate_traces",
            "explorer._successors", "explorer.invariants",
        },
    },
    "corpus-list-n2q4-socket": {
        "kind": "corpus",
        "config": {"data_type": "list", "n": 2, "q": 4, "channel": "arbitrary"},
        "case_cap": 6000,
        "pinned": {
            "cases": 6000,
            "sha256": "b20c6f7e55b07b1ae73b21eda0dbbde4f9755d8229d1536b8a653465d4b059fd",
        },
        "spans": _LIST_MODEL | {
            "replica.deliver", "explorer._successors", "explorer.enumerate_traces",
            "testgen.generate_corpus", "testgen.case_line",
            "testgen.parse_case_line", "harness.replay_corpus",
            "harness.replay_case", "server.handle_frame",
            "wire.encode_frame", "wire.send", "wire.recv",
        },
    },
    "stress-list-n3": {
        "kind": "stress",
        "config": {"data_type": "list", "n": 3},
        "rounds": STRESS_ROUNDS,
        "ops_per_round": STRESS_OPS_PER_ROUND,
        "pinned": {
            "ops": STRESS_ROUNDS * STRESS_OPS_PER_ROUND,
            "failure": None,
        },
        "spans": _LIST_MODEL | {
            "replica.deliver", "harness.stress", "server.handle_frame",
        },
    },
}

# The small corpus behind the transport-equivalence check and the gate's
# self-test: every terminal schedule of list n=2 q=3.
AUX = {
    "config": {"data_type": "list", "n": 2, "q": 3, "channel": "arbitrary"},
    "bug_flag": "bug7-idgen-order",
    "pinned": {
        "cases": 908,
        "sha256": "015139bdc5989dae1a1d867f4b33cde484b09383e99b60f87cbef8bdcd1fa025",
    },
}
