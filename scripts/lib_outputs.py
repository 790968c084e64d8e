#!/usr/bin/env python3
"""Write the library-level outputs of this checkout into OUTDIR, for a
bit-for-bit comparison of two checkouts:

    python scripts/lib_outputs.py /tmp/before     # in one checkout
    python scripts/lib_outputs.py /tmp/after      # in the other
    diff -r /tmp/before /tmp/after

Every float is written with ``float.hex``, so the diff sees any changed
bit, signed zeros included.  The files, one record per line:

- ``lp.tsv``, ``admm.tsv``, ``subgrad.tsv``, ``game.tsv``,
  ``coalitions.tsv``: the 480 markets ``random_problem(default_rng(1),
  feasible_for="coalitions")`` draws, each under the s1, s2 and s3
  variants (the iterative solvers run s1 on the first 24 only).  The LP
  record holds the status (``optimal`` or the blamed family and
  message) and the solution; the ADMM and subgradient records the
  solution, flags, ``gamma_final``, the row count, the last trace row
  and a SHA-256 of every trace row; the game record, per division rule,
  the division, worth and core verdict, and then the convexity probe.
  The coalitions record holds one coalition and its value, for every
  non-empty coalition of the market, all valued in one
  ``coalition_values`` call.
- ``estimate.tsv``: ``estimate_access`` strict and with ``fallback`` on
  the whole contention graph, each operator's view and each view with
  one operator removed, of the committed scenario and of generated
  deployments, against a 0.2 s table of graphs up to 5 vertices.
  Strict runs that fail record the error type and text.  One
  deployment is chosen so that the ``table``, ``pruned`` and
  ``fallback`` paths all occur; the script fails if one does not.
- ``graph.tsv``: the contention graph of every scenario and view that
  ``estimate.tsv`` estimates: its sorted edge list, then one record per
  connected component with its vertex ids and, for a component of at
  most ``MIS_MAX_VERTICES`` vertices, its maximum independent sets.
- ``table.tsv``: that 0.2 s table itself, one record per graph in
  enumeration order: the canonical key, its automorphism orbits and
  the entry's access and raw shares.
- ``lbt.tsv``: ``run_lbt`` statistics, through ``simulate_graph`` on
  every graph of up to 3 vertices and ``run_coexistence`` on two
  scenarios, on three seeds each, under the default and the other
  arrival and occupancy models, with a digest of one timeline.

The wall time goes to stderr, not into OUTDIR.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from slicenet.coexist import (
    SimConfig,
    build_contention_graph,
    measure_table,
    run_coexistence,
    simulate_graph,
)
from slicenet.contention import (
    MIS_MAX_VERTICES,
    enumerate_connected_colored_graphs,
    graph_from_canonical,
    maximum_independent_sets,
)
from slicenet.game import (
    DIVISION_RULES,
    check_core,
    coalition_values,
    compute_worth,
    convexity_probe,
    default_division,
)
from slicenet.mboe import estimate_access, remove_mno, subgraph_for_mno
from slicenet.problem import VARIANTS, InfeasibleProblem, as_variant, solve_lp_oracle
from slicenet.scenario import load_scenario
from slicenet.solvers import solve_admm, solve_subgradient
from slicenet.topology import generate_topology, random_problem

MARKETS = 480
#: markets whose s1 variant the iterative solvers run: s1 is infeasible
#: on nearly every market, so both run to their iteration caps there
#: and take most of the script's time
S1_ITERATIVE = 24
SCENARIO = ROOT / "scenarios" / "two_mno_20mhz.yaml"
#: (kind, stations per operator, users per station, access points, cell
#: size in m, seed) of the generated deployments; the first reaches all
#: three provenances, the second is ``cli_outputs.sh``'s dense one and
#: the rest have 200 contenders, like the benchmark's dense deployments
DEPLOYMENTS = (
    ("two-mno-urban", 3, 3, 20, 150.0, 1),
    ("two-mno-urban", 10, 6, 20, 200.0, 0),
    ("two-mno-urban", 20, 4, 40, 200.0, 1),
    ("uniform-random", 25, 3, 50, 150.0, 1),
    ("two-mno-urban", 45, 2, 20, 200.0, 1),
    ("uniform-random", 40, 2, 40, 200.0, 1),
)


def hexed(x) -> str:
    """``x`` as text, every float in its exact hex form."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (tuple, list)):
        return "[" + ",".join(hexed(v) for v in x) + "]"
    if isinstance(x, float):
        return x.hex()
    return str(x)


def record(*fields) -> str:
    return "\t".join(hexed(f) for f in fields)


def solution_fields(solution) -> tuple:
    return (solution.u_hz, solution.alpha, solution.objective, solution.flags)


def trace_fields(trace) -> tuple:
    rows = [(r.iteration, r.objective, r.primal_residual, r.dual_residual) for r in trace.rows]
    digest = hashlib.sha256(hexed(rows).encode()).hexdigest()
    last = rows[-1] if rows else ()
    return (trace.converged, trace.gamma_final, len(rows), last, digest)


def market_records(out: dict[str, list[str]]) -> None:
    rng = np.random.default_rng(1)
    for i in range(MARKETS):
        base = random_problem(rng, feasible_for="coalitions")
        for variant in VARIANTS:
            problem = as_variant(base, variant)
            name = f"{i}\t{variant}"
            try:
                lp = solve_lp_oracle(problem)
                out["lp"].append(record(name, "optimal", *solution_fields(lp)))
            except InfeasibleProblem as exc:
                out["lp"].append(record(name, "infeasible", exc.family, exc.message))
            if variant != "s1" or i < S1_ITERATIVE:
                for key, solve in (("admm", solve_admm), ("subgrad", solve_subgradient)):
                    solution, trace = solve(problem)
                    out[key].append(
                        record(name, *solution_fields(solution), *trace_fields(trace))
                    )
            for rule in DIVISION_RULES:
                try:
                    agreement = default_division(problem, rule)
                except InfeasibleProblem as exc:
                    out["game"].append(record(name, rule, "infeasible", exc.family))
                    continue
                worth = compute_worth(agreement)
                verdict = check_core(agreement)
                out["game"].append(
                    record(
                        name, rule, agreement.x, agreement.optimum, agreement.standalone,
                        *solution_fields(agreement.solution),
                        worth.slice_worth, worth.mno_worth, worth.total,
                        verdict.in_core, verdict.optimum, verdict.welfare_gap,
                        verdict.failing_mno, verdict.reason,
                    )
                )
            coalitions = [
                c for size in range(1, len(problem.members) + 1)
                for c in combinations(problem.members, size)
            ]
            out["coalitions"].extend(
                record(name, list(c), value)
                for c, value in zip(coalitions, coalition_values(problem, coalitions))
            )
            probe = convexity_probe(problem)
            out["game"].append(
                record(
                    name, "probe", probe.checked,
                    [
                        (sorted(v.joining), sorted(v.smaller), sorted(v.larger), v.lhs, v.rhs)
                        for v in probe.violations
                    ],
                )
            )


def deployment(kind, bs, ues, aps, cell, seed):
    """A row of ``DEPLOYMENTS``: its record label and its scenario."""
    scenario = generate_topology(
        kind, seed=seed, n_mnos=2, bs_per_mno=bs, ues_per_bs=ues, cell_size_m=cell, wifi_aps=aps
    )
    return "-".join(map(str, (kind, bs, ues, aps, cell, seed))), scenario


def views():
    """(scenario label, view label, contention graph) of the committed
    scenario and each deployment: the whole graph, each operator's view
    and each view with one operator removed."""
    scenarios = [("two_mno_20mhz", load_scenario(SCENARIO))]
    scenarios += [deployment(*d) for d in DEPLOYMENTS]
    for label, scenario in scenarios:
        graph = build_contention_graph(scenario)
        owners = sorted(m.id for m in scenario.mnos)
        yield label, "whole", graph
        for m in owners:
            yield label, f"mno{m}", subgraph_for_mno(graph, m)
        for m in owners:
            yield label, f"without{m}", remove_mno(graph, [m])


def estimate_records(out: dict[str, list[str]]) -> None:
    table = measure_table(5, SimConfig(duration_s=0.2, seed=0))
    for form in enumerate_connected_colored_graphs(5):
        entry = table.entries[form.key]
        out["table"].append(record(form.key, form.orbits, entry.access, entry.raw_share))
    three_paths = "-".join(map(str, DEPLOYMENTS[0]))  # the first deployment's label
    for label, view, g in views():
        for fallback in (False, True):
            name = f"{label}\t{view}\t{'fallback' if fallback else 'strict'}"
            try:
                est = estimate_access(g, table, fallback=fallback)
            except (KeyError, ValueError) as exc:
                out["estimate"].append(record(name, type(exc).__name__, exc))
                continue
            out["estimate"].extend(
                record(name, vid, est.access[vid], est.provenance[vid])
                for vid in sorted(est.access)
            )
            kinds = Counter(est.provenance.values())
            if label == three_paths and view == "whole" and fallback and len(kinds) < 3:
                raise RuntimeError(f"{label} reaches only {dict(kinds)}")


def graph_records(out: dict[str, list[str]]) -> None:
    for label, view, g in views():
        out["graph"].append(record(label, view, "edges", sorted(g.edges)))
        for k, comp in enumerate(g.components()):
            sets = (
                maximum_independent_sets(comp)
                if len(comp.vertices) <= MIS_MAX_VERTICES
                else "too-large"
            )
            out["graph"].append(record(label, view, f"component{k}", list(comp.ids), sets))


def stats_records(out, name, outcome) -> None:
    for cid in sorted(outcome.stats):
        st = outcome.stats[cid]
        out["lbt"].append(record(name, *dataclasses.astuple(st)))


def lbt_records(out: dict[str, list[str]]) -> None:
    settings = {
        "saturated": {},
        "poisson": {"arrivals": "poisson", "arrival_rate_hz": 200.0},
        "fixed-doubling": {"occupancy": "fixed", "doubling_backoff": True},
    }
    for form in enumerate_connected_colored_graphs(3):
        graph = graph_from_canonical(form.size, form.colors, form.edge_bits)
        for seed in range(3):
            for label, extra in settings.items():
                config = SimConfig(duration_s=0.2, seed=seed, **extra)
                stats_records(out, f"{form.key}\t{seed}\t{label}", simulate_graph(graph, config))
    scenarios = [("two_mno_20mhz", load_scenario(SCENARIO)), deployment(*DEPLOYMENTS[0])]
    for name, scenario in scenarios:
        for seed in range(3):
            for label, extra in settings.items():
                config = SimConfig(duration_s=0.05, seed=seed, **extra)
                outcome = run_coexistence(scenario, config)
                stats_records(out, f"{name}\t{seed}\t{label}", outcome)
    config = SimConfig(duration_s=0.05, seed=0, record_timeline=True)
    timeline = run_coexistence(scenarios[1][1], config).timeline
    digest = hashlib.sha256(hexed(list(timeline)).encode()).hexdigest()
    out["lbt"].append(record("timeline", len(timeline), digest))


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    out: dict[str, list[str]] = {
        name: [] for name in (
            "lp", "admm", "subgrad", "game", "coalitions", "estimate", "graph", "table",
            "lbt",
        )
    }
    start = time.perf_counter()
    for section in (market_records, estimate_records, graph_records, lbt_records):
        t = time.perf_counter()
        section(out)
        print(f"{section.__name__}: {time.perf_counter() - t:.1f} s", file=sys.stderr)
    for name, lines in out.items():
        (outdir / f"{name}.tsv").write_text("\n".join(lines) + "\n")
    records = sum(len(lines) for lines in out.values())
    print(
        f"{records} records -> {outdir} in {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
