#!/usr/bin/env python3
"""Convergence study: the distributed solver against its baseline.

Draws random allocation problems, solves each with the operator-consensus
method and the dual subgradient baseline, and writes per-instance trace
files plus a summary of iterations needed to reach a 1% optimality gap.
"""

import argparse
from pathlib import Path

import numpy as np

from slicenet.solvers import solve_admm, solve_subgradient
from slicenet.topology import random_problem


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--out-dir", type=Path, default=Path("results/traces"))
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    rows = ["instance\toracle\tadmm_iters\tsubgrad_iters\tadmm_obj\tsubgrad_obj"]
    for i in range(args.instances):
        problem = random_problem(rng)
        admm_sol, admm_trace = solve_admm(problem)
        sub_sol, sub_trace = solve_subgradient(problem)
        oracle = admm_trace.optimum
        (args.out_dir / f"admm_{i:03d}.tsv").write_text(admm_trace.to_text())
        (args.out_dir / f"subgrad_{i:03d}.tsv").write_text(sub_trace.to_text())
        fast = admm_trace.iterations_to_gap(oracle)
        slow = sub_trace.iterations_to_gap(oracle)
        rows.append(
            f"{i}\t{oracle:.6f}\t{fast}\t{slow}"
            f"\t{admm_sol.objective:.6f}\t{sub_sol.objective:.6f}"
        )
        print(rows[-1])
    summary = args.out_dir / "summary.tsv"
    summary.write_text("\n".join(rows) + "\n")
    print(f"wrote {summary}")


if __name__ == "__main__":
    main()
