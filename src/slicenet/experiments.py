"""Sweep experiments: deployment knob in, result tables out.

A plan fixes a topology family, the deployment variants to compare,
and one sweep axis; running it walks the axis, rebuilds the scenario
at each value, estimates airtime from the contention table, solves
every variant with the distributed solver, which also reports the exact
optimum, and writes plot-ready structured text.  Outputs carry no
timestamps or machine identifiers, so a (plan, seed) pair reproduces
every artifact byte for byte.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .coexist import SimConfig, build_contention_graph, measure_table
from .contention import CANONICAL_MAX_VERTICES
from .mboe import PROV_FALLBACK, estimate_access
from .problem import VARIANTS, InfeasibleProblem, build_problem
from .scenario import Scenario, load_scenario
from .solvers import solve_admm
from .topology import check_generation, generate_topology

log = logging.getLogger(__name__)

AXES = ("density", "cell_size", "min_qos")


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce one sweep.

    ``scenario_path`` pins a hand-written deployment and only makes
    sense for the ``min_qos`` axis; the topology axes (``density``,
    ``cell_size``) regenerate the deployment at each value from the
    generation knobs below.
    """

    axis: str
    values: tuple[float, ...]
    variants: tuple[str, ...] = VARIANTS
    seed: int = 0
    out_dir: str = "results"
    scenario_path: str | None = None
    kind: str = "two-mno-urban"
    bs_per_mno: int = 2
    ues_per_bs: int = 1
    cell_size_m: float = 400.0
    wifi_aps: int = 2
    table_max_size: int = 5
    table_duration_s: float = 10.0

    def validate(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}; expected one of {AXES}")
        if not self.variants:
            raise ValueError("variant set must be nonempty")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ValueError(f"unknown variants {unknown}; expected some of {VARIANTS}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if not all(0 < v < math.inf for v in self.values):
            raise ValueError("sweep values must be positive and finite")
        if not 0 < self.table_duration_s < math.inf:
            raise ValueError("table duration must be positive and finite")
        # enumeration and canonical labeling stop at this size
        if not 1 <= self.table_max_size <= CANONICAL_MAX_VERTICES:
            raise ValueError(
                f"auto-generated tables support sizes 1..{CANONICAL_MAX_VERTICES}"
            )
        if self.scenario_path is not None and self.axis != "min_qos":
            raise ValueError(
                f"a pinned scenario file cannot be swept along {self.axis!r};"
                " topology axes regenerate the deployment"
            )
        if self.scenario_path is None:
            for value in self.values:
                check_generation(**_generation_at(self, value))


@dataclass(frozen=True)
class ResultRow:
    """One (sweep value, variant) cell.

    Admitted traffic is the achieved throughput summed over served
    (link, slice) pairs, reported per slice and split by band.  A
    failed cell keeps its row with the error category filled in, so a
    sweep never loses its shape to one infeasible corner.
    """

    value: float
    variant: str
    service_ids: tuple[int, ...]
    licensed_bps: tuple[float, ...]
    unlicensed_bps: tuple[float, ...]
    objective: float
    oracle_objective: float
    iterations: int | None
    fallback_links: int = 0
    error: str = ""

    def admitted_bps(self, l: int) -> float:
        return self.licensed_bps[l] + self.unlicensed_bps[l]


def _generation_at(plan: ExperimentPlan, value: float) -> dict:
    """The generation parameters of the deployment at sweep ``value``."""
    names = ("kind", "bs_per_mno", "ues_per_bs", "cell_size_m", "wifi_aps")
    knobs = {name: getattr(plan, name) for name in names}
    if plan.axis == "density":
        knobs["wifi_aps"] = int(round(value))
    elif plan.axis == "cell_size":
        knobs["cell_size_m"] = value
    return knobs


def _scenario_at(plan: ExperimentPlan, value: float) -> Scenario:
    if plan.scenario_path is not None:
        base = load_scenario(plan.scenario_path)
    else:
        base = generate_topology(seed=plan.seed, **_generation_at(plan, value))
    if plan.axis != "min_qos":
        return base
    services = sorted(base.services, key=lambda s: s.id)
    bumped = (replace(services[0], min_throughput_bps=value),) + tuple(services[1:])
    return replace(base, services=bumped)


def run_experiment(plan: ExperimentPlan) -> list[ResultRow]:
    """Execute the sweep and write artifacts under ``plan.out_dir``.

    Writes ``results.tsv`` (the master table), one convergence trace
    per cell, and per-(slice, band) admitted-traffic series.  Cells
    whose allocation is infeasible are recorded and skipped, not
    fatal: a sweep exists to show where the feasible region ends.
    """
    plan.validate()
    out = Path(plan.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table_cfg = SimConfig(duration_s=plan.table_duration_s, seed=plan.seed)
    table = measure_table(
        plan.table_max_size, table_cfg, cache_dir=out / "tables"
    )
    rows: list[ResultRow] = []
    for value in plan.values:
        scenario = _scenario_at(plan, value)
        graph = build_contention_graph(scenario)
        estimates = estimate_access(graph, table, fallback=True)
        fb = sum(1 for p in estimates.provenance.values() if p == PROV_FALLBACK)
        for variant in plan.variants:
            rows.append(
                _run_cell(plan, out, scenario, estimates, fb, value, variant)
            )
    report(rows, out)
    return rows


def _run_cell(plan, out, scenario, estimates, fallback_links, value, variant) -> ResultRow:
    service_ids = tuple(s.id for s in sorted(scenario.services, key=lambda s: s.id))
    blank = (0.0,) * len(service_ids)
    try:
        problem = build_problem(scenario, estimates, variant=variant)
        solution, trace = solve_admm(problem)
    except InfeasibleProblem as err:
        log.warning("cell value=%g variant=%s infeasible: %s", value, variant, err)
        return ResultRow(
            value=value,
            variant=variant,
            service_ids=service_ids,
            licensed_bps=blank,
            unlicensed_bps=blank,
            objective=0.0,
            oracle_objective=0.0,
            iterations=None,
            fallback_links=fallback_links,
            error=f"infeasible-{err.family}",
        )
    trace_path = out / f"trace_{plan.axis}_{float(value)!r}_{variant}.tsv"
    trace_path.write_text(trace.to_text())
    order = [problem.service_ids.index(sid) for sid in service_ids]
    return ResultRow(
        value=value,
        variant=variant,
        service_ids=service_ids,
        licensed_bps=tuple(solution.licensed_rate_bps(l) for l in order),
        unlicensed_bps=tuple(solution.unlicensed_rate_bps(l) for l in order),
        objective=solution.objective,
        oracle_objective=trace.optimum,
        iterations=trace.iterations_to_gap(trace.optimum),
        fallback_links=fallback_links,
    )


def report(rows: list[ResultRow], out_dir) -> list[Path]:
    """Write the master table and plot-ready series files.

    Deterministic by construction: fixed column order, fixed float
    formatting, rows sorted by (value, variant).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    rows = sorted(rows, key=lambda r: (r.value, r.variant))
    service_ids = rows[0].service_ids if rows else ()

    header = ["value", "variant"]
    for sid in service_ids:
        header += [f"licensed_bps_s{sid}", f"unlicensed_bps_s{sid}", f"admitted_bps_s{sid}"]
    header += ["objective", "oracle_objective", "iterations", "fallback_links", "error"]
    lines = ["\t".join(header)]
    for r in rows:
        cells = [f"{r.value:.10g}", r.variant]
        for l in range(len(service_ids)):
            cells += [
                f"{r.licensed_bps[l]:.10g}",
                f"{r.unlicensed_bps[l]:.10g}",
                f"{r.admitted_bps(l):.10g}",
            ]
        cells += [
            f"{r.objective:.10g}",
            f"{r.oracle_objective:.10g}",
            "" if r.iterations is None else str(r.iterations),
            str(r.fallback_links),
            r.error,
        ]
        lines.append("\t".join(cells))
    master = out / "results.tsv"
    master.write_text("\n".join(lines) + "\n")
    written.append(master)

    variants = sorted({r.variant for r in rows})
    values = sorted({r.value for r in rows})
    by_cell = {(r.value, r.variant): r for r in rows}
    for l, sid in enumerate(service_ids):
        for band in ("licensed", "unlicensed", "admitted"):
            lines = ["\t".join(["value"] + variants)]
            for v in values:
                cells = [f"{v:.10g}"]
                for var in variants:
                    r = by_cell.get((v, var))
                    if r is None:
                        cells.append("")
                    elif band == "licensed":
                        cells.append(f"{r.licensed_bps[l]:.10g}")
                    elif band == "unlicensed":
                        cells.append(f"{r.unlicensed_bps[l]:.10g}")
                    else:
                        cells.append(f"{r.admitted_bps(l):.10g}")
                lines.append("\t".join(cells))
            path = out / f"series_{band}_s{sid}.tsv"
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
    return written
