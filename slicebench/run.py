#!/usr/bin/env python3
"""slicenet benchmark: one workload, one closed-loop run.

    python3 slicebench/run.py --workload market-random --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing else.  Requests are sent one at
a time from a single process.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs each request of one fixed
pass untraced and then traced, and prints the per-layer metrics.  The last
line of standard output is the result as JSON; the line before it is
the provenance block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import REFERENCE_S, HostClock, WallClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: set-ups timed per run, each in a fresh interpreter; setup_s is their median
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 50
#: reference-kernel runs in each host-speed sample around a set-up
SETUP_CLOCK_REPEATS = 8


def import_program() -> None:
    """Put this checkout's sources first on the path, or stop."""
    package = SRC / "slicenet"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"slicebench: no slicenet sources at {package}")
    sys.path.insert(0, str(SRC))
    import slicenet

    if Path(slicenet.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"slicebench: imported slicenet from {slicenet.__file__}")
    # everything the requests call, so module imports are never timed
    import slicenet.cli  # noqa: F401
    import slicenet.topology  # noqa: F401


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setups(args, clock) -> list[float]:
    """Normalised wall time of a fresh process that imports the program,
    warms its lazy imports and makes the workload's inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        with tempfile.TemporaryDirectory(dir=args.work) as into:
            argv = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--setup-into",
                into,
            ]
            clock.restart()
            done = subprocess.run(
                argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
            )
            samples.append(clock.lap())
        if done.returncode != 0:
            raise SystemExit(f"slicebench: set-up failed:\n{done.stderr}")
    return samples


def run_request(workload, item, work: Path, clock, tracer=None):
    """Execute one request and check it; returns (seconds, checked).
    The seconds are the sum of the request's laps on ``clock``."""
    from workloads import Checked

    laps = []

    def lap() -> None:
        laps.append(clock.lap())

    clock.restart()
    try:
        output = workload.execute(item, work, lap)
    except Exception:
        lap()
        return sum(laps), Checked([traceback.format_exc()])
    lap()
    elapsed = sum(laps)
    if tracer is None:
        return elapsed, workload.check(item, output)
    with tracer.paused():
        return elapsed, workload.check(item, output)


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.admm_gap_max = 0.0

    def add(self, elapsed: float, checked, label: str) -> None:
        self.latencies.append(elapsed)
        self.admm_gap_max = max(self.admm_gap_max, checked.admm_gap)
        if checked.problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(checked.problems), file=sys.stderr)


def measure(workload, inputs, work: Path, seconds: float, clock) -> Tally:
    """Whole passes, as many as come nearest to ``seconds``; at least one.
    Each latency is normalised to the reference host speed."""
    tally = Tally()
    start = time.perf_counter()
    index = 0
    while True:
        for n, item in enumerate(workload.pass_items(inputs, index)):
            tally.add(*run_request(workload, item, work, clock), f"pass {index} request {n}")
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index / 2 >= seconds:
            return tally


def traced_pass(workload, inputs, work: Path, tracer):
    """Each request of pass 0 untraced and then at once traced, so the
    two runs of a request see the host in the same state."""
    plain, traced = Tally(), Tally()
    wall = WallClock()
    for n, item in enumerate(workload.pass_items(inputs, 0)):
        plain.add(*run_request(workload, item, work, wall), f"untraced request {n}")
        with tracer.installed():
            tracer.request = n
            traced.add(*run_request(workload, item, work, wall, tracer), f"traced request {n}")
    return plain, traced


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def provenance(args, requests: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "slicenet").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_commit": commit,
            "source_sha256": digest.hexdigest(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tracing": bool(args.trace),
        "normalised_to_kernel_s": None if args.trace else REFERENCE_S,
        "requests": requests,
        "setups": 1 if args.trace else SETUP_REPEATS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_into is not None:
        workload.setup(args.seed, args.setup_into)
        return 0

    scratch = ROOT / ".slicebench"
    scratch.mkdir(exist_ok=True)
    args.work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.trace:
            traced_run(args, workload)
        else:
            plain_run(args, workload)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return 0


def plain_run(args, workload) -> None:
    setups = timed_setups(args, HostClock(SETUP_CLOCK_REPEATS))
    work = args.work / "run"
    work.mkdir()
    inputs = workload.setup(args.seed, work)
    # warm-up: first calls into scipy and the like are not timed
    first = workload.pass_items(inputs, 0)[0]
    Tally().add(*run_request(workload, first, work, WallClock()), "warm-up request")

    tally = measure(workload, inputs, work, args.seconds, HostClock(workload.clock_repeats))
    attempted = len(tally.latencies)
    latencies_ms = [1e3 * x for x in tally.latencies]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "success_rate": ((attempted - tally.failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "request_p50_ms": (statistics.median(latencies_ms), "ms"),
        "request_p90_ms": (percentile(latencies_ms, 90), "ms"),
    }
    prov = provenance(args, attempted)
    prov["beyond_p90"] = sum(x > metrics["request_p90_ms"][0] for x in latencies_ms)
    report(prov, metrics, attempted, tally.failed)


def traced_run(args, workload) -> None:
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    work = args.work / "run"
    work.mkdir()
    with tracer.installed():
        tracer.request = "setup"
        inputs = workload.setup(args.seed, work)
    first = workload.pass_items(inputs, 0)[0]
    Tally().add(*run_request(workload, first, work, WallClock()), "warm-up request")

    plain, traced = traced_pass(workload, inputs, work, tracer)
    requests = len(traced.latencies)
    overhead_ms = 1e3 * statistics.median(
        t - p for t, p in zip(traced.latencies, plain.latencies)
    )
    metrics = layer_metrics(tracer.spans, requests, traced.admm_gap_max, overhead_ms)
    attempted = len(plain.latencies) + requests
    report(provenance(args, requests), metrics, attempted, plain.failed + traced.failed)


def report(prov: dict, metrics: dict, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({"provenance": prov}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
