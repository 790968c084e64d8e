#!/usr/bin/env bash
# Write the deterministic CLI outputs of this checkout into OUTDIR, for a
# byte-for-byte comparison of two checkouts:
#
#   scripts/cli_outputs.sh /tmp/before     # in one checkout
#   scripts/cli_outputs.sh /tmp/after      # in the other
#   diff -r /tmp/before /tmp/after
#
# It builds a short table (graphs of up to 5 vertices, 0.2 simulated s
# each), and one more with fixed occupancy and doubling backoff (fixed
# holds give tied transmission ends), then runs mboe (also with operator 2 removed), solve with each
# solver (with its trace; the LP has none), solve under the s1 and s2
# variants with the LP and ADMM (both infeasible: exit code and message
# are kept), game and a 1 s sim on
# scenarios/two_mno_20mhz.json, and a min_qos sweep over it whose top
# floor makes some cells infeasible.  It keeps the exit code and stderr
# line of five malformed inputs: a scenario with a malformed band field,
# a scenario whose operator id is 1.5, sim --duration nan, experiment
# --values 0 and gen --cell-size 50.  It re-saves the
# committed scenario (two_mno.json) and checks that mboe on it prints
# exactly mboe.txt.  Then it generates a dense two-operator deployment
# (120 links, 20 access points), whose components reach past the table,
# runs mboe, solve (also under s2, with the subgradient, and cut short at 25
# ADMM iterations) and game on it with --fallback,
# checks that out-of-domain solver settings exit 2, and simulates it with a
# timeline and with Poisson arrivals.  Last, it runs mboe strict (exit code
# and stderr kept) and with --fallback against copies of table.tsv that
# each lack one row the estimate reads: 1;W;0;0 for dense.yaml and the
# 2-vertex 2;LW;11;1 for the committed scenario.  dense.yaml holds the
# JSON that gen writes, like every scenario file; it keeps its old name,
# which gen_dense.txt prints, so outputs compare with older checkouts.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
cd "$1"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
SCENARIO="$ROOT/scenarios/two_mno_20mhz.json"

slicenet() { python -m slicenet.cli "$@"; }

slicenet table --max-size 5 --duration 0.2 --seed 0 --out table.tsv > table.txt
slicenet table --max-size 5 --duration 0.2 --seed 0 --occupancy fixed --doubling-backoff \
    --out table_fixed.tsv > table_fixed.txt
slicenet mboe --scenario "$SCENARIO" --table table.tsv --out mboe.txt
slicenet mboe --scenario "$SCENARIO" --table table.tsv --remove 2 --out mboe_remove2.txt
for solver in lp admm subgrad; do
    slicenet solve --scenario "$SCENARIO" --table table.tsv --solver "$solver" \
        --trace "trace_$solver.tsv" --out "solve_$solver.txt"
done
for solver in lp admm; do
    for variant in s1 s2; do
        # both variants are infeasible here: solve exits 4 and names the
        # blamed constraint family on stderr, and that is the output
        status=0
        slicenet solve --scenario "$SCENARIO" --table table.tsv --solver "$solver" \
            --variant "$variant" --out "solve_${solver}_$variant.txt" \
            2> "solve_${solver}_$variant.err" || status=$?
        echo "exit $status" >> "solve_${solver}_$variant.err"
    done
done
slicenet game --scenario "$SCENARIO" --table table.tsv --out game.txt
slicenet sim --scenario "$SCENARIO" --duration 1 --seed 0 --out sim.txt
slicenet experiment --axis min_qos --values 1e6,5e6,4e7 --scenario "$SCENARIO" \
    --table-max-size 4 --table-duration 0.2 --out experiment > experiment.txt

# malformed inputs: the exit code and the stderr line are the output
# (a scenario whose band has a malformed field or whose operator id is
# not an integer exits 3, a non-finite simulation setting exits 5,
# parameters outside their domain exit 2)
cat > bad_band.json <<'JSON'
{"services": [], "mnos": [], "nodes": [], "links": [],
 "band": {"unlicensed_bandwidth_hz": 2e7, "ssg": {"1": 5}}}
JSON
cat > bad_mno_id.json <<'JSON'
{"services": [], "mnos": [{"id": 1.5, "licensed_bandwidth_hz": 2e7}],
 "nodes": [], "links": [], "band": {"unlicensed_bandwidth_hz": 2e7}}
JSON
for case in "bad_band sim --scenario bad_band.json" \
    "bad_mno_id mboe --scenario bad_mno_id.json --table table.tsv" \
    "sim_duration_nan sim --scenario $SCENARIO --duration nan" \
    "experiment_values_0 experiment --axis density --values 0 --out experiment_values_0" \
    "gen_cell_size_50 gen --kind grid --cell-size 50 --out gen_cell_size_50.json"; do
    read -r name command <<< "$case"
    status=0
    # shellcheck disable=SC2086  # the command is several words
    slicenet $command 2> "$name.err" || status=$?
    echo "exit $status" >> "$name.err"
done

python -c 'import json, sys
from slicenet.scenario import load_scenario, scenario_to_dict
print(json.dumps(scenario_to_dict(load_scenario(sys.argv[1])), indent=2))' \
    "$SCENARIO" > two_mno.json
slicenet mboe --scenario two_mno.json --table table.tsv --out mboe_json.txt
cmp mboe.txt mboe_json.txt

slicenet gen --kind two-mno-urban --bs-per-mno 10 --ues-per-bs 6 --wifi-aps 20 \
    --cell-size 200 --seed 0 --out dense.yaml > gen_dense.txt
DENSE=(--scenario dense.yaml --table table.tsv --fallback)
slicenet mboe "${DENSE[@]}" --out dense_mboe.txt
slicenet solve "${DENSE[@]}" --trace dense_trace_admm.tsv --out dense_solve_admm.txt
slicenet solve "${DENSE[@]}" --variant s2 --trace dense_trace_admm_s2.tsv \
    --out dense_solve_admm_s2.txt
slicenet solve "${DENSE[@]}" --solver subgrad --trace dense_trace_subgrad.tsv \
    --out dense_solve_subgrad.txt
# cut short: flagged max-iterations
slicenet solve "${DENSE[@]}" --max-iter 25 --trace dense_trace_admm_25.tsv \
    --out dense_solve_admm_25.txt
# solver settings outside their domain are usage errors (exit 2); the
# output and the exit code are kept
for case in "gamma_neg --gamma -1" "gamma_zero --gamma 0" "gamma_nan --gamma nan" \
    "max_iter_neg --max-iter -3" "tol_neg --tol=-1e-6" \
    "step_scale_nan --solver subgrad --step-scale nan"; do
    read -r name settings <<< "$case"
    status=0
    # shellcheck disable=SC2086  # the settings are several words
    slicenet solve "${DENSE[@]}" $settings > "dense_usage_$name.txt" 2>&1 || status=$?
    echo "exit $status" >> "dense_usage_$name.txt"
done
slicenet game "${DENSE[@]}" --out dense_game.txt
slicenet sim --scenario dense.yaml --duration 0.2 --seed 0 --timeline dense_timeline.tsv \
    --out dense_sim.txt
slicenet sim --scenario dense.yaml --duration 0.2 --seed 0 --arrivals poisson \
    --arrival-rate 200 --out dense_sim_poisson.txt

# a table that lacks one row the estimate reads, so the estimate misses
# inside the table's reach.  dense.yaml reads only 1;W;0;0 (its other
# components are cliques of 6 and 7 vertices, which fail before any miss
# without --fallback); the committed scenario reads the 2-vertex row
# 2;LW;11;1 for its one contending pair
mboe_missing() {  # NAME SCENARIO KEY
    awk -F '\t' -v key="$3" '$1 != key' table.tsv > "table_$1.tsv"
    # exactly that one row is gone
    [ "$(wc -l < "table_$1.tsv")" -eq $(($(wc -l < table.tsv) - 1)) ]
    local status=0
    slicenet mboe --scenario "$2" --table "table_$1.tsv" --out "$1.txt" 2> "$1.err" \
        || status=$?
    echo "exit $status" >> "$1.err"
    slicenet mboe --scenario "$2" --table "table_$1.tsv" --fallback --out "$1_fallback.txt"
}
mboe_missing dense_miss_1W dense.yaml "1;W;0;0"
mboe_missing miss_2LW "$SCENARIO" "2;LW;11;1"
