"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/child.py <workload> <seed> <mode>

``mode`` is ``setup`` (set up, then stop), ``run`` (set up, then reach
the verdict while ``SpeedSampler`` times a probe), ``trace`` (as
``run``, with the spans of ``tracer.py`` installed between set-up and
verdict) or ``aux`` (the small-corpus checks; the workload argument is
ignored).  ``run.py`` starts it from the root of a checkout with
``PYTHONPATH`` naming that checkout's ``src``.  It prints one JSON object
on stdout: set-up, verdict and mean probe seconds, the peak RSS of this
process, the outputs the gate compares against the pinned verdicts and,
when traced, the span report.

Only the public API of ``crdtcheck.explorer``, ``testgen``, ``harness``,
``server`` and ``wire`` is called.
"""

import time

T0 = time.perf_counter()

# Everything imported from here on counts as set-up time.
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import socket  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import crdtcheck  # noqa: E402
from crdtcheck import CrdtCheckError, explorer, harness, server, testgen, wire  # noqa: E402
from workloads import AUX, WORKLOADS  # noqa: E402

WORK_DIR = ".perfbench_work"
PROBE_INTERVAL_S = 0.05

_rng = random.Random(0)
_PROBE_DATA = [(_rng.randrange(1000), _rng.randrange(50), f"e{i}") for i in range(500)]


def probe() -> int:
    """A fixed pure-Python computation that runs no crdtcheck code:
    grouping into a dict of tuples, sorting and JSON, like the model."""
    groups: dict = {}
    for a, b, name in _PROBE_DATA:
        key = (a % 97, name[:2])
        groups[key] = groups.get(key, ()) + ((b, a),)
    items = sorted((k, tuple(sorted(v))) for k, v in groups.items())
    return hash(json.dumps(items[:20]))


class SpeedSampler:
    """Times ``probe`` every ``PROBE_INTERVAL_S`` of wall time while active.

    Other tenants of a shared host slow Python down by up to 1.6x for
    minutes at a time, and the slowdown changes within one verdict.  The
    probe runs from a SIGALRM handler in this thread, between the
    verdict's own bytecodes, so its mean duration tracks the host's speed
    over the verdict's whole interval; ``verdict_rel`` divides the
    verdict's wall time by it.  The probes add about 2% to ``verdict_s``.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        # A collection the probe's allocations happen to trigger would walk
        # the verdict's whole heap; leave it to the verdict's own allocations.
        gc.disable()
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)
        gc.enable()

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_s(self) -> float:
        if not self.samples:  # a verdict shorter than one interval
            self._sample(None, None)
        return sum(self.samples) / len(self.samples)


class LockstepLink:
    """One socketpair connection to a replica server, driven from one thread.

    ``send`` writes a frame at the client end, runs the loop body of
    ``server.serve_connection`` once at the server end, and reads the
    reply back at the client end, so every frame crosses the socket
    twice through ``wire.FrameSocket``.
    """

    def __init__(self):
        client, peer = socket.socketpair()
        self.client = wire.FrameSocket(client)
        self.peer = wire.FrameSocket(peer)
        self.server = None

    def send(self, obj: dict) -> dict:
        self.client.send(obj)
        frame = self.peer.recv()
        try:
            reply = self.server.handle_frame(frame)
        except CrdtCheckError as exc:
            reply = {"error": str(exc), "type": "Error"}
        self.peer.send(reply)
        return self.client.recv()

    def close(self) -> None:
        self.client.close()
        self.peer.close()


def socket_factory(cfg, links):
    """Endpoints factory for ``replay_corpus``: fresh flagless servers
    behind the same connections for every case."""

    def make():
        for i, link in enumerate(links):
            link.server = server.ReplicaServer(cfg.data_type, i, cfg.n)
        return links

    return make


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def summary_json(summary) -> str:
    return json.dumps(summary.as_json(), sort_keys=True, separators=(",", ":"))


# -- workloads: each returns (verdict, close) once its inputs are ready --


def setup_explore(spec, seed, tmp):
    cfg = explorer.ExplorationConfig(**spec["config"])

    def verdict():
        start = time.perf_counter()
        report = explorer.explore(cfg)
        elapsed = time.perf_counter() - start
        return elapsed, {
            "distinct_states": report.distinct_states,
            "states_visited": report.states_visited,
            "terminal_traces": report.terminal_traces,
            "violations": len(report.violations),
            "exhaustive": report.exhaustive,
        }

    return verdict, lambda: None


def setup_corpus(spec, seed, tmp):
    cfg = explorer.ExplorationConfig(**spec["config"])
    links = [LockstepLink() for _ in range(cfg.n)]
    factory = socket_factory(cfg, links)
    path = os.path.join(tmp, "corpus.jsonl")

    def verdict():
        start = time.perf_counter()
        with open(path, "w", encoding="utf-8") as out:
            cases = testgen.generate_corpus(cfg, out, limit=spec["case_cap"])
        generated = time.perf_counter()
        with open(path, encoding="utf-8") as stream:
            summary = harness.replay_corpus(cfg, stream, endpoints_factory=factory)
        done = time.perf_counter()
        return done - start, {
            "cases": cases,
            "sha256": file_sha256(path),
            "corpus_bytes": os.path.getsize(path),
            "replay": summary.as_json(),
            "gen_cases_per_s": cases / (generated - start),
            "replay_cases_per_s": summary.cases / (done - generated),
        }

    def close():
        for link in links:
            link.close()

    return verdict, close


def setup_stress(spec, seed, tmp):
    cfg = spec["config"]

    def verdict():
        start = time.perf_counter()
        report = harness.stress(
            cfg["data_type"], cfg["n"], seed=seed,
            rounds=spec["rounds"], ops_per_round=spec["ops_per_round"],
        )
        elapsed = time.perf_counter() - start
        out = report.as_json()
        return elapsed, {key: out[key] for key in ("ops", "failure", "deliveries", "rejected")}

    return verdict, lambda: None


SETUPS = {"explore": setup_explore, "corpus": setup_corpus, "stress": setup_stress}


def run_aux(tmp) -> dict:
    """Small-corpus replays: loopback, socketpair, and a flagged server."""
    cfg = explorer.ExplorationConfig(**AUX["config"])
    path = os.path.join(tmp, "aux.jsonl")
    with open(path, "w", encoding="utf-8") as out:
        cases = testgen.generate_corpus(cfg, out)
    links = [LockstepLink() for _ in range(cfg.n)]
    try:
        summaries = {}
        for label, kwargs in (
            ("loopback", {}),
            ("socket", {"endpoints_factory": socket_factory(cfg, links)}),
            ("flagged", {"bug_flags": (AUX["bug_flag"],)}),
        ):
            with open(path, encoding="utf-8") as stream:
                summaries[label] = summary_json(harness.replay_corpus(cfg, stream, **kwargs))
    finally:
        for link in links:
            link.close()
    return {"cases": cases, "sha256": file_sha256(path), **summaries}


def main() -> None:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(crdtcheck.__file__).startswith(src):
        sys.exit(f"crdtcheck was imported from {crdtcheck.__file__}, not from {src}")
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        if mode == "aux":
            result = {"outputs": run_aux(tmp)}
        else:
            spec = WORKLOADS[workload]
            verdict, close = SETUPS[spec["kind"]](spec, seed, tmp)
            result = {"setup_s": time.perf_counter() - T0}
            try:
                if mode != "setup":
                    tracer = None
                    if mode == "trace":
                        from tracer import Tracer

                        tracer = Tracer()
                        tracer.install()
                    with SpeedSampler() as speed:
                        result["verdict_s"], result["outputs"] = verdict()
                    result["probe_s"] = speed.mean_s()
                    result["verdict_rel"] = result["verdict_s"] / result["probe_s"]
                    if tracer is not None:
                        result["trace"] = tracer.report()
            finally:
                close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
