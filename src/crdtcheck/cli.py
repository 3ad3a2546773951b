"""Command-line front end.

Machine-readable JSON goes to stdout (or ``--out``); human progress
lines go to stderr.  Exit codes: 0 clean, 1 bad usage / configuration /
corpus, 2 invariant violations or conformance divergence, 3 state
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    BadConfig,
    BudgetExceeded,
    MalformedCase,
    UnknownFlag,
)
from .explorer import (
    CHANNEL_ARBITRARY,
    CHANNELS,
    MODEL_BUG_FLAGS,
    ExplorationConfig,
    explore,
)
from .harness import replay_corpus, stress
from .operations import LIST, RPQ
from .server import BUG_DESCRIPTIONS, BUG_FLAGS
from .testgen import generate_corpus


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for found
    # violations, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_model_flags(sub, *, bugs_help: str, search: bool = True) -> None:
    sub.add_argument("--type", required=True, choices=(RPQ, LIST),
                     dest="data_type", help="replicated data type")
    sub.add_argument("-n", type=int, default=1, help="replica count (1..3)")
    sub.add_argument("-q", type=int, required=True,
                     help="number of client request slots")
    sub.add_argument("--channel", choices=CHANNELS, default=CHANNEL_ARBITRARY,
                     help="delivery discipline explored")
    sub.add_argument("--bug", action="append", default=[],
                     metavar="FLAG", help=bugs_help)
    if search:  # replay runs no search, so a state cap would change nothing
        sub.add_argument("--state-cap", type=int, default=None,
                         help="abort after this many distinct states")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crdtcheck",
                     description="model checking and conformance testing "
                                 "for two replicated data types")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("explore", parents=[], help="search the state space "
                        "and check invariants")
    _add_model_flags(p, bugs_help="model-level bug flag (repeatable): "
                     + ", ".join(sorted(MODEL_BUG_FLAGS)))
    p.add_argument("--out", default=None, help="write the JSON report here "
                   "instead of stdout")
    p.set_defaults(func=_cmd_explore)

    p = subs.add_parser("gen", help="emit every terminal schedule as a "
                        "JSONL conformance corpus")
    _add_model_flags(p, bugs_help="model-level bug flag baked into the oracle "
                     "(repeatable)")
    p.add_argument("--out", default=None, help="corpus file (default stdout)")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many cases")
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("replay", help="replay a corpus against replica "
                        "servers and compare canonical bytes")
    _add_model_flags(p, bugs_help="server-side bug flag to inject "
                     "(repeatable): " + ", ".join(BUG_FLAGS), search=False)
    p.add_argument("corpus", help="corpus file, or - for stdin")
    p.add_argument("--model-bug", action="append", default=[],
                   metavar="FLAG", help="model-level flag the corpus was "
                   "generated with (repeatable)")
    p.add_argument("--out", default=None, help="write the JSON summary here "
                   "instead of stdout")
    p.set_defaults(func=_cmd_replay)

    p = subs.add_parser("stress", help="seeded random conformance session "
                        "against the servers")
    p.add_argument("--type", required=True, choices=(RPQ, LIST),
                   dest="data_type")
    p.add_argument("-n", type=int, default=2, help="replica count (1..3)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--ops", type=int, default=40,
                   help="client requests per round")
    p.add_argument("--bug", action="append", default=[],
                   metavar="FLAG", help="server-side bug flag (repeatable)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stress)

    p = subs.add_parser("bugs", help="list the bug-injection catalog")
    p.set_defaults(func=_cmd_bugs)

    return parser


def _emit(out_path: str | None, doc) -> None:
    blob = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)


def _config(args, model_bugs, state_cap=None) -> ExplorationConfig:
    return ExplorationConfig(
        data_type=args.data_type,
        n=args.n,
        q=args.q,
        channel=args.channel,
        bug_flags=frozenset(model_bugs),
        state_cap=state_cap,
    )


def _cmd_explore(args) -> int:
    cfg = _config(args, args.bug, args.state_cap)
    try:
        report = explore(cfg)
    except BudgetExceeded as exc:
        if exc.report is not None:
            _emit(args.out, exc.report.as_json())
        print(f"explore: {exc}", file=sys.stderr)
        return 3
    _emit(args.out, report.as_json())
    print(
        f"explore: {report.distinct_states} distinct states, "
        f"{report.terminal_traces} terminal schedules, "
        f"{len(report.violations)} violation(s)",
        file=sys.stderr,
    )
    return 2 if report.violations else 0


def _cmd_gen(args) -> int:
    cfg = _config(args, args.bug, args.state_cap)
    if not args.out:
        count = generate_corpus(cfg, sys.stdout, limit=args.limit)
    else:
        # Write beside the target and move it into place only on success,
        # so a refused or capped run leaves an existing corpus untouched.
        tmp = f"{args.out}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                count = generate_corpus(cfg, fh, limit=args.limit)
            os.replace(tmp, args.out)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    print(f"gen: wrote {count} case(s)", file=sys.stderr)
    return 0


def _cmd_replay(args) -> int:
    cfg = _config(args, args.model_bug)
    if args.corpus == "-":
        summary = replay_corpus(cfg, sys.stdin, bug_flags=tuple(args.bug))
    else:
        with open(args.corpus, "r", encoding="utf-8") as fh:
            summary = replay_corpus(cfg, fh, bug_flags=tuple(args.bug))
    _emit(args.out, summary.as_json())
    print(
        f"replay: {summary.cases} case(s): {summary.passed} pass, "
        f"{summary.diverged} diverged, {summary.replica_error} replica-error, "
        f"{summary.rejected} rejected",
        file=sys.stderr,
    )
    if summary.diverged or summary.replica_error:
        return 2
    if summary.rejected:
        return 1
    return 0


def _cmd_stress(args) -> int:
    report = stress(
        args.data_type,
        args.n,
        seed=args.seed,
        rounds=args.rounds,
        ops_per_round=args.ops,
        bug_flags=tuple(args.bug),
    )
    _emit(args.out, report.as_json())
    if report.failure is None:
        print(
            f"stress: {report.ops} op(s) over {report.rounds} round(s), "
            f"{report.deliveries} deliveries, all converged",
            file=sys.stderr,
        )
        return 0
    print(f"stress: failed: {report.failure.kind} at round "
          f"{report.failure.round_no}", file=sys.stderr)
    return 2


def _cmd_bugs(args) -> int:
    doc = [
        {
            "description": BUG_DESCRIPTIONS[flag],
            "flag": flag,
            "scope": "model+server" if flag in MODEL_BUG_FLAGS else "server",
        }
        for flag in BUG_FLAGS
    ]
    _emit(None, doc)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BadConfig, UnknownFlag) as exc:
        print(f"crdtcheck: {exc}", file=sys.stderr)
        return 1
    except MalformedCase as exc:
        print(f"crdtcheck: corpus error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"crdtcheck: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"crdtcheck: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
