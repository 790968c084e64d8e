#!/usr/bin/env bash
# Write the deterministic CLI outputs of this checkout into OUTDIR, for a
# byte-for-byte comparison of two checkouts:
#
#   scripts/cli_outputs.sh /tmp/before     # in one checkout
#   scripts/cli_outputs.sh /tmp/after      # in the other
#   diff -r /tmp/before /tmp/after
#
# It builds a short table (graphs of up to 5 vertices, 0.2 simulated s
# each), then runs mboe, solve with each solver (with its trace; the LP
# has none), game and a 1 s sim on scenarios/two_mno_20mhz.yaml.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
cd "$1"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
SCENARIO="$ROOT/scenarios/two_mno_20mhz.yaml"

slicenet() { python -m slicenet.cli "$@"; }

slicenet table --max-size 5 --duration 0.2 --seed 0 --out table.tsv > table.txt
slicenet mboe --scenario "$SCENARIO" --table table.tsv --out mboe.txt
for solver in lp admm subgrad; do
    slicenet solve --scenario "$SCENARIO" --table table.tsv --solver "$solver" \
        --trace "trace_$solver.tsv" --out "solve_$solver.txt"
done
slicenet game --scenario "$SCENARIO" --table table.tsv --out game.txt
slicenet sim --scenario "$SCENARIO" --duration 1 --seed 0 --out sim.txt
