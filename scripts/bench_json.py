#!/usr/bin/env python3
"""Run the benchmark on a parent revision and on this checkout, and write
both sides' numbers to one JSON file:

    python scripts/bench_json.py --pr N --parent REV             # BENCH_<N>.json
    python scripts/bench_json.py --pr N --parent REV --pairs 10 --seed 3 --out b.json

The parent side is a ``git archive`` copy of REV in a temporary
directory, as for the byte-diffs; the change side is this checkout's
working tree.  Each side runs the command of ``BENCHMARK.json`` from its
own root, so each builds what it runs from its own sources, and every
run lasts the benchmark's ``run_seconds``.

For every workload the script makes ``--pairs`` untraced runs per side
(``--trace 0``, 10 by default, the fewest a claimed gain rests on),
alternating which side goes first from pair to pair so that a slow spell
of a shared host falls on both, and then ``TRACED_RUNS`` traced runs per
side (``--trace 1``), alternating in the same way.  It writes, per
workload:

- ``end_to_end``: per metric and side, the median, first and third
  quartiles and every run's value, and in how many pairs the change did
  better (``better`` as ``BENCHMARK.json`` declares it);
- ``per_layer``: each side's traced per-layer metrics, each the median
  over that side's traced runs, so that one run's garbage collection
  does not move a layer's number;
- the runs' attempted and failed request counts and source hashes.

Top-level fields give the revisions, the exact command, the repeat counts
and the host (CPU count and model, platform, Python, numpy and scipy).

Last, the ``tier1`` block times the Tier-1 command of ROADMAP.md on each
side, in a fresh temporary copy of that side's tracked files (the
parent's ``git archive``; this checkout's tracked files as they are in
the working tree): once cold, with no ``tests/.cache``, and once warm, on
the cache the cold run left.  Each run records its wall seconds, exit
code, passed, failed and error counts and pytest's summary line.  The
checkout's own ``tests/.cache`` is never read or written.  Progress goes
to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: traced runs per side and workload, whose median each per-layer metric is
TRACED_RUNS = 3


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def archive(rev: str, into: Path) -> Path:
    """The committed files of ``rev``, extracted into ``into``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(into)
    return into


def tracked_copy(into: Path) -> Path:
    """This checkout's tracked files, as they are in the working tree,
    copied into ``into``; a tracked file deleted from the tree is left out."""
    names = subprocess.run(
        ["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True
    ).stdout.decode().split("\0")
    for name in filter(None, names):
        source, target = ROOT / name, into / name
        if source.is_file() or source.is_symlink():
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target, follow_symlinks=False)
    return into


#: the Tier-1 command of ROADMAP.md, run from a copy's root
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def tier1_once(root: Path) -> dict:
    """One Tier-1 run from ``root``: wall seconds, exit code and counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=7200)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {word: int(count) for count, word in re.findall(r"(\d+) ([a-z]+)", summary)}
    return {
        "wall_s": round(wall, 2),
        "exit_code": done.returncode,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "errors": counts.get("error", 0) + counts.get("errors", 0),
        "summary": summary,
    }


def tier1_block(parent_rev: str, tmp: Path) -> dict:
    """Cold, then warm, Tier-1 runs of each side in a fresh copy."""
    copies = {
        "parent": archive(parent_rev, tmp / "tier1_parent"),
        "change": tracked_copy(tmp / "tier1_change"),
    }
    runs = {}
    for side, root in copies.items():
        runs[side] = {}
        for state in ("cold", "warm"):
            print(f"tier1: {side}, {state}", file=sys.stderr)
            runs[side][state] = tier1_once(root)
    return {"command": TIER1, **runs}


def run_once(root: Path, bench: dict, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run from ``root``: its provenance and result blocks."""
    seconds = bench["run_seconds"]
    argv = [
        *bench["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(
        argv, cwd=root, capture_output=True, text=True, timeout=max(600, 20 * seconds)
    )
    if done.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    *_, prov_line, result_line = done.stdout.strip().splitlines()
    return {"provenance": json.loads(prov_line)["provenance"], "result": json.loads(result_line)}


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def value(run: dict, name: str) -> float:
    return run["result"]["metrics"][name]["value"]


def host_block(run: dict) -> dict:
    host = dict(run["provenance"]["host"])
    for key in ("git_commit", "source_sha256"):
        host.pop(key, None)
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {**host, "cpu_model": cpu, "platform": platform.platform()}


def bench_workload(workload: str, sides: dict, bench: dict, args) -> dict:
    plain = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            print(f"{workload}: pair {pair + 1}/{args.pairs}, {side}", file=sys.stderr)
            plain[side].append(run_once(sides[side], bench, workload, args.seed, 0))
    traced = {side: [] for side in sides}
    for run in range(TRACED_RUNS):
        order = list(sides) if run % 2 == 0 else list(sides)[::-1]
        for side in order:
            print(f"{workload}: traced {run + 1}/{TRACED_RUNS}, {side}", file=sys.stderr)
            traced[side].append(run_once(sides[side], bench, workload, args.seed, 1))

    end_to_end = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        runs = {side: [value(r, name) for r in plain[side]] for side in sides}
        if metric["better"] == "lower":
            wins = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        else:
            wins = sum(c > p for p, c in zip(runs["parent"], runs["change"]))
        end_to_end[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{side: spread(runs[side]) for side in sides},
            "change_better_pairs": wins,
        }
    per_layer = {
        metric["name"]: {
            "unit": metric["unit"],
            "better": metric["better"],
            **{
                side: statistics.median(value(r, metric["name"]) for r in traced[side])
                for side in sides
            },
        }
        for metric in bench["per_layer"]
        if all(metric["name"] in r["result"]["metrics"] for runs in traced.values() for r in runs)
    }
    counts = {
        side: {
            "attempted": sum(r["result"]["attempted"] for r in plain[side]),
            "failed": sum(r["result"]["failed"] for r in plain[side]),
            "traced_attempted": sum(r["result"]["attempted"] for r in traced[side]),
            "traced_failed": sum(r["result"]["failed"] for r in traced[side]),
            "source_sha256": plain[side][0]["provenance"]["host"]["source_sha256"],
        }
        for side in sides
    }
    summary = {"end_to_end": end_to_end, "per_layer": per_layer, "requests": counts}
    return summary, plain["change"][0]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names the output BENCH_<N>.json")
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10, help="untraced runs per side and workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in bench["workloads"]),
        help="comma-separated workload names (default: every workload)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="default: BENCH_<N>.json here; a confirming run on another seed writes elsewhere",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = args.out or ROOT / f"BENCH_{args.pr}.json"

    with tempfile.TemporaryDirectory(prefix="bench_json_") as tmp:
        sides = {"parent": archive(args.parent, Path(tmp) / "parent"), "change": ROOT}
        report = {}
        for workload in args.workloads.split(","):
            report[workload], sample = bench_workload(workload, sides, bench, args)
        tier1 = tier1_block(args.parent, Path(tmp))
    # only the sources and the benchmark decide what a run measures
    dirty = bool(git("status", "--porcelain", "--", "src", "slicebench"))
    document = {
        "pr": args.pr,
        "parent": {"rev": args.parent, "commit": git("rev-parse", args.parent)},
        "change": {"commit": git("rev-parse", "HEAD"), "uncommitted_source_changes": dirty},
        "command": " ".join(
            [*bench["command"], "--workload", "<workload>", "--seed", str(args.seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "<0 untraced, 1 traced>"]
        ),
        "repeats": {"untraced_pairs": args.pairs, "traced_runs_per_side": TRACED_RUNS},
        "host": host_block(sample),
        "workloads": report,
        "tier1": tier1,
    }
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
