#!/usr/bin/env python3
"""pcfcert benchmark: seeded certificate requests through ``pcfcert.cli.main``.

    python3 bench/run.py --workload cert-mix --seed 1 --seconds 20 --trace 0

One client sends requests in a closed loop, in this process and thread:
each request is one ``cli.main`` call with stdout and stderr captured, and
the next starts when it returns.  A run is whole passes over the workload's
menu, each pass in a seeded order, for about ``--seconds``: a pass starts
only when it is expected to end in time.  Every
response is checked against the expected-outcome table in ``menus.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced pass of the same requests and prints the
per-layer metrics of ``tracer.py``.  ``--workload all`` runs every workload
in its own process.  The last line of stdout is the result as JSON; the
line before it is the run record (Python version, cores, commit, seed,
failures, response digest), also written under ``.bench_out/``.

Standard library only; pytest-benchmark is not used.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import menus
from tracer import METRICS as LAYER_METRICS
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 11
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pcfcert.cli; print(time.perf_counter() - t)"
)

# (name, unit) of the end-to-end metrics, as in BENCHMARK.json
E2E_METRICS = (
    ("certs_per_s", "req/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("pass_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Client:
    """Sends requests to ``main`` and checks every response."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failures: dict[str, tuple[str, bool]] = {}  # name -> (reason, known defect)
        self.failed = 0
        self.unexpected = 0
        self._first: dict[tuple, str] = {}  # argv -> digest of its first response

    def send(self, req: menus.Request, main=None) -> float:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        code = None
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = (main or self.main)(list(req.argv))
            except Exception as exc:  # escaping main is a failed request
                raised = exc
            elapsed = perf_counter() - start
        self.attempted += 1
        stdout = out.getvalue()
        reason = self._judge(req, code, raised, stdout)
        digest = hashlib.sha256(f"{code}\0{stdout}\0{err.getvalue()}".encode()).hexdigest()
        first = self._first.setdefault(req.argv, digest)
        if reason is None and first != digest:
            reason = "output bytes differ from an earlier identical request"
        if reason is not None:
            self.failed += 1
            self.unexpected += not req.known_defect
            self.failures.setdefault(req.name, (reason, req.known_defect))
        return elapsed

    @staticmethod
    def _judge(req, code, raised, stdout) -> str | None:
        if raised is not None:
            return f"{type(raised).__name__} escaped main: {raised}"
        if code not in req.exits:
            return f"exit {code}, expected {sorted(req.exits)}"
        if req.check is None:
            return None
        try:
            return req.check(stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    def digest(self) -> str:
        """Digest of the first response to every distinct request."""
        h = hashlib.sha256()
        for argv in sorted(self._first):
            h.update(f"{argv}\0{self._first[argv]}\n".encode())
        return h.hexdigest()


def measure_setup() -> float:
    """Median time to import pcfcert.cli, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def write_field_files() -> dict[str, str]:
    OUT.mkdir(exist_ok=True)
    files = {}
    for name, coeffs in menus.FIELD_FILES.items():
        path = OUT / f"field-{name}.json"
        path.write_text(json.dumps({"g": {"var": "c", "coeffs": [str(c) for c in coeffs]}}))
        files[name] = os.path.relpath(path)
    return files


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _passes(seconds: float):
    """Yield 1, 2, ... while the next pass, at the mean pass time so far, is
    expected to end within ``seconds``; there is always at least one pass."""
    start = perf_counter()
    done = 0
    while done == 0 or (perf_counter() - start) * (done + 1) / done <= seconds:
        done += 1
        yield done


def plain_run(menu, rng, client, seconds) -> tuple[dict, dict]:
    latencies = []
    start = perf_counter()
    for passes in _passes(seconds):
        order = rng.sample(menu, len(menu))
        latencies += [client.send(req) for req in order]
    wall = perf_counter() - start
    metrics = {
        "certs_per_s": len(latencies) / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "pass_ratio": 1 - client.failed / client.attempted,
    }
    return metrics, {"passes": passes, "samples": len(latencies)}


def traced_run(menu, rng, client, seconds, spans_path) -> tuple[dict, dict]:
    tracer = Tracer()
    traced_main = tracer.request(client.main)
    plain = traced = 0.0
    for passes in _passes(seconds):
        order = rng.sample(menu, len(menu))
        plain += sum(client.send(req) for req in order)
        tracer.install()
        try:
            traced += sum(client.send(req, traced_main) for req in order)
        finally:
            tracer.uninstall()
        tracer.flush()
    tracer.write_spans(spans_path)
    metrics = tracer.metrics(passes, traced / plain)
    request_s = tracer.layer_totals()["request"][1] / passes
    shares = {
        "iterate_share": metrics["factoring.iterate.total_s"] / request_s,
        "f_factor_share": metrics["factoring.f_factor.total_s"] / request_s,
        "f_factor_calls": metrics["factoring.f_factor.calls"],
    }
    return metrics, {"passes": passes, "spans": len(tracer.spans),
                     "spans_file": os.path.relpath(spans_path), "layer_shares": shares}


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    from pcfcert import cli

    rng = random.Random(f"{args.workload}:{args.seed}")
    menu = menus.WORKLOADS[args.workload](rng, write_field_files())
    client = Client(cli.main)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, extra = traced_run(menu, rng, client, args.seconds,
                                    OUT / f"{tag}-spans.jsonl")
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        setup_s = measure_setup()
        metrics, extra = plain_run(menu, rng, client, args.seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(E2E_METRICS)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "menu_size": len(menu), **extra,
        "attempted": client.attempted, "failed": client.failed,
        "fail_ratio": client.failed / client.attempted,
        "failures": {name: {"reason": reason, "known_defect": known}
                     for name, (reason, known) in sorted(client.failures.items())},
        "response_digest": client.digest(),
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": client.unexpected == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line combines their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in menus.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*menus.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pcfcert" / "cli.py").is_file():
        print(f"error: no pcfcert sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
