#!/usr/bin/env bash
# Sweep studies comparing the slicing variants: unlicensed-only (s1),
# licensed-only (s2), and joint (s3).  Results land under results/.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT=${OUT:-results}
SEED=${SEED:-7}

# denser unlicensed contention: more access points per cell
slicenet experiment --axis density --values 1,2,4,6 \
    --variants s1,s2,s3 --seed "$SEED" --out "$OUT/density"

# wider cells: weaker links, licensed spectrum stretched thinner
slicenet experiment --axis cell_size --values 100,200,400,800 \
    --variants s1,s2,s3 --seed "$SEED" --out "$OUT/cell_size"

# rising service floors until the problem tips infeasible
slicenet experiment --axis min_qos --values 5e6,1e7,2e7,4e7 \
    --variants s1,s3 --seed "$SEED" --out "$OUT/min_qos"

echo "sweeps complete under $OUT/"
