"""crdtcheck's benchmark: time to verdict, memory and conformance throughput.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports crdtcheck from ``./src``
and fails when that is missing.  Every repetition of a workload runs in a
fresh child process (``child.py``) that calls the public API of
``crdtcheck.explorer``, ``testgen``, ``harness``, ``server`` and ``wire``
from one thread; the only connections are the corpus workload's two
socketpairs.  Explore is a batch job; replay and stress are closed loops
in which one driver sends each frame and waits for its reply.

A run of one workload:

1. starts one child that only sets up (it warms the bytecode cache and
   is discarded), then ``SETUP_SAMPLES`` more whose set-up times count;
2. runs the small-corpus checks of ``gate.check_aux`` in one child;
3. repeats the workload, one child per repetition, until ``--seconds``
   have passed (at least once), checking every verdict;
4. with ``--trace 1``, runs one more repetition with spans installed
   (``tracer.py``) and checks span coverage.

stderr gets a table of every metric with its unit; stdout gets one JSON
line with the run's metadata, metrics and checks, then the result line
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
counts checks and ``failed`` counts wrong verdicts.  With ``--trace 0``
the metrics are medians: ``setup_s`` over every set-up, ``verdict_rel``
and ``peak_rss_mb`` over the repetitions.  With ``--trace 1`` they are
the per-layer metrics of the traced repetition.  The table and the
metadata line also carry the raw ``verdict_s``, the mean probe time and
the corpus workload's generation and replay throughputs.  ``--workload
all`` runs every workload and names each metric ``<workload>/<metric>``.
The exit code is 0 only when every check passed.

``verdict_rel`` is the verdict's wall time divided by the mean wall time
of a fixed pure-Python probe that ``child.SpeedSampler`` runs every
50 ms during the verdict.  On a shared 2-core host other tenants slow
Python down by up to 1.6x for minutes at a time: over ten runs the raw
``verdict_s`` spread (interquartile range over median) reached 0.26,
more than any regression bound may allow, while the ratio moves with the
program's own cost and hardly with the host's.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402
from workloads import AUX, WORKLOADS  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 5
BUDGET_S = 170.0  # per workload; one run must end within 180 s

END_TO_END = ("setup_s", "verdict_rel", "peak_rss_mb")
UNITS = {"verdict_rel": "ratio", "verdict_s": "s", "probe_s": "s", "peak_rss_mb": "MiB"}


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    cmd = [sys.executable, CHILD, workload, str(seed), mode]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode} ran past the time budget") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} {mode} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def per_layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced repetition; the throughputs and the
    tracing overhead's base are medians over the untraced repetitions."""
    trace = traced["trace"]
    out = traced["outputs"]
    m: dict = {}
    for name in SPAN_NAMES:
        span = trace["spans"][name]
        m[f"{name}.calls"] = (span["calls"], "count")
        m[f"{name}.s"] = (span["s"], "s")
        m[f"{name}.self_s"] = (span["self_s"], "s")
    frames = trace["spans"]["server.handle_frame"]
    m["server.handle_frame.p50_us"] = (frames["p50_us"], "us")
    m["server.handle_frame.p99_us"] = (frames["p99_us"], "us")
    m["server.handle_frame.errors"] = (frames["errors"], "count")

    visited = out.get("states_visited", 0)
    distinct = out.get("distinct_states", 0)
    m["explorer.dedup_hit_ratio"] = (1 - distinct / visited if visited else 0.0, "ratio")
    m["explorer.distinct_states"] = (distinct, "count")
    m["explorer.states_visited"] = (visited, "count")
    m["explorer.terminal_traces"] = (out.get("terminal_traces", 0), "count")

    delivered = trace["spans"]["replica.deliver"]["calls"]
    buffered = trace["deliveries_buffered"] / delivered if delivered else 0.0
    m["replica.deliver.buffered_ratio"] = (buffered, "ratio")
    m["positions.max_depth"] = (trace["max_position_depth"], "count")
    m["testgen.corpus_bytes"] = (out.get("corpus_bytes", 0), "bytes")
    for key, layer in (("gen_cases_per_s", "testgen"), ("replay_cases_per_s", "harness")):
        m[f"{layer}.{key}"] = untraced.get(key, (0.0, "cases/s"))
    m["wire.frames"] = (trace["spans"]["wire.encode_frame"]["calls"], "count")
    m["wire.bytes"] = (trace["frame_bytes"], "bytes")
    m["trace.overhead_ratio"] = (traced["verdict_rel"] / untraced["verdict_rel"][0], "ratio")
    return m


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All children of one workload; returns metrics, checks and sizes."""
    spec = WORKLOADS[name]
    deadline = time.monotonic() + BUDGET_S
    checks: list[tuple[str, bool]] = []

    run_child(name, seed, "setup", deadline)
    setups = [run_child(name, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    checks += gate.check_aux(run_child(name, seed, "aux", deadline)["outputs"])

    reps: list[dict] = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        rep = run_child(name, seed, "run", deadline)
        checks += [(f"rep {len(reps)}: {c}", ok)
                   for c, ok in gate.check_outputs(spec["pinned"], rep["outputs"])]
        reps.append(rep)
    checks.append(gate.self_test_altered(spec["pinned"], reps[0]["outputs"]))
    setups += [r["setup_s"] for r in reps]
    medians = {"setup_s": (statistics.median(setups), "s")}
    for key, unit in UNITS.items():
        medians[key] = (statistics.median(r[key] for r in reps), unit)
    for key in ("gen_cases_per_s", "replay_cases_per_s"):
        if key in reps[0]["outputs"]:
            medians[key] = (statistics.median(r["outputs"][key] for r in reps), "cases/s")

    if trace:
        traced = run_child(name, seed, "trace", deadline)
        checks += [(f"traced: {c}", ok)
                   for c, ok in gate.check_outputs(spec["pinned"], traced["outputs"])]
        checks += gate.check_spans(spec["spans"], traced["trace"])
        metrics = per_layer_metrics(traced, medians)
        extra = {}
    else:
        metrics = {key: medians[key] for key in END_TO_END}
        extra = {k: v for k, v in medians.items() if k not in metrics}
    extra["wrong_verdicts"] = (sum(not ok for _, ok in checks), f"count of {len(checks)} checks")

    sizes = {k: v for k, v in spec.items() if k not in ("kind", "pinned", "spans")}
    sizes.update(
        verdict_samples=[r["verdict_s"] for r in reps],
        probe_samples=[r["probe_s"] for r in reps],
        setup_samples=setups,
    )
    return {"metrics": metrics, "extra": extra, "checks": checks, "sizes": sizes}


def run_metadata(args) -> dict:
    sources = sorted(glob.glob(os.path.join("src", "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as f:
            data = f.read()
        digest.update(path.encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None  # a checkout without .git has none; src_sha256 names the code
    if os.path.isdir(".git"):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "aux_corpus": AUX["config"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps
    # the running child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join("src", "crdtcheck", "__init__.py")):
        print("no crdtcheck sources under ./src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = run_metadata(args)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1

    metrics, attempted, failed = {}, 0, 0
    for name, res in results.items():
        prefix = f"{name}/" if args.workload == "all" else ""
        for key, (value, unit) in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
        attempted += len(res["checks"])
        failed += sum(not ok for _, ok in res["checks"])
        for key, (value, unit) in {**res["metrics"], **res["extra"]}.items():
            print(f"{name:26} {key:40} {value:>16.6g} {unit}", file=sys.stderr)
        for check, ok in res["checks"]:
            if not ok:
                print(f"{name:26} WRONG VERDICT: {check}", file=sys.stderr)

    detail = {
        "meta": meta,
        "workloads": {
            name: {
                "sizes": res["sizes"],
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in {**res["metrics"], **res["extra"]}.items()},
                "checks": res["checks"],
            }
            for name, res in results.items()
        },
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
