#!/usr/bin/env python3
"""Time each command from start to exit in fresh interpreters and print
the medians as TSV:

    python scripts/command_times.py                        # this checkout
    python scripts/command_times.py --runs 7 OTHER_CHECKOUT  # and another

Every command runs ``--runs`` times (default 5) on the committed
scenario ``scenarios/two_mno_20mhz.json``, with the checkout's ``src``
first on ``PYTHONPATH``.  Further checkouts named on the command line
are timed in the same rounds, command by command and checkout by
checkout, so a slow spell of a shared host falls on all of them alike.
``mboe``, ``solve`` and ``game`` read the table that the timed
``table --max-size 3`` command writes just before them (graphs up to 3
vertices, 0.2 simulated s each).  ``table --max-size 5`` is the cold
build of the benchmark's ``table-cold`` workload (419 graphs, 0.2
simulated s each) and writes a file of its own.  One row per command:
its name, then the median wall time in ms of each checkout, this one
first.  A command that exits non-zero stops the script.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "two_mno_20mhz.json"


def commands(work: Path) -> list[tuple[str, list[str]]]:
    """(name, interpreter arguments) of each timed command."""
    sc, table, table5 = str(SCENARIO), str(work / "table.tsv"), str(work / "table5.tsv")
    cli = ["-m", "slicenet.cli"]
    return [
        ("python -c pass", ["-c", "pass"]),
        ("import slicenet.cli", ["-c", "import slicenet.cli"]),
        ("gen", cli + ["gen", "--kind", "grid", "--out", str(work / "g.json")]),
        ("sim --duration 1", cli + ["sim", "--scenario", sc, "--duration", "1"]),
        (
            "table --max-size 3 --duration 0.2",
            cli + ["table", "--max-size", "3", "--duration", "0.2", "--out", table],
        ),
        (
            "table --max-size 5 --duration 0.2",
            cli + ["table", "--max-size", "5", "--duration", "0.2", "--out", table5],
        ),
        ("mboe", cli + ["mboe", "--scenario", sc, "--table", table]),
        ("solve --solver lp", cli + ["solve", "--scenario", sc, "--table", table, "--solver", "lp"]),
        (
            "solve --solver admm",
            cli + ["solve", "--scenario", sc, "--table", table, "--solver", "admm"],
        ),
        ("game", cli + ["game", "--scenario", sc, "--table", table]),
    ]


def run(args: list[str], checkout: Path, work: Path) -> float:
    """Wall seconds of one fresh interpreter running ``args``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], cwd=work, env=env, capture_output=True, text=True
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("others", nargs="*", type=Path, help="more checkouts to time")
    args = parser.parse_args()
    checkouts = [ROOT] + [p.resolve() for p in args.others]

    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / str(i) for i in range(len(checkouts))]
        for work in works:
            work.mkdir()
        plans = [commands(work) for work in works]
        names = [name for name, _ in plans[0]]
        times = {(k, i): [] for k in range(len(names)) for i in range(len(checkouts))}
        for _ in range(args.runs):
            for k in range(len(names)):
                for i, (checkout, work) in enumerate(zip(checkouts, works)):
                    times[k, i].append(run(plans[i][k][1], checkout, work))

    print("\t".join(["command"] + [f"{c} median_ms" for c in checkouts]))
    for k, name in enumerate(names):
        medians = [1e3 * statistics.median(times[k, i]) for i in range(len(checkouts))]
        print("\t".join([name] + [f"{m:.0f}" for m in medians]))


if __name__ == "__main__":
    main()
