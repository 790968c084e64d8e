"""Command-line front end.

Every subcommand reads declarative inputs (scenario files, measured
access tables) and writes deterministic text, so runs can be scripted
and diffed.  Errors print one ``error: {category}: {message}`` line to
stderr and map to stable exit codes:

    0  success
    2  usage (argparse, solver settings such as --gamma 0, a table
       --max-size outside 1..6, and experiment and gen parameters outside
       their domain)
    3  scenario file problems, and ``game`` on a scenario with no
       operators (``no-operators``) or more than 8 (``too-many-operators``)
    4  infeasible allocation problem
    5  simulation or estimation inputs unusable
    1  anything else
"""

from __future__ import annotations

import argparse
import logging
import sys
from functools import cache
from pathlib import Path

from .coexist import (
    AccessTable,
    SimConfig,
    SimConfigError,
    TableFormatError,
    build_contention_graph,
    measure_table,
    run_coexistence,
)
from .contention import CANONICAL_MAX_VERTICES, GraphTooLargeError
from .experiments import AXES, ExperimentPlan, run_experiment
from .game import NoOperatorsError, check_core, compute_worth, default_division
from .mboe import TableMissError, estimate_access, remove_mno
from .problem import (
    VARIANTS,
    InfeasibleProblem,
    TooManyOperatorsError,
    build_problem,
    solve_lp_oracle,
)
from .scenario import ScenarioError, load_scenario, save_scenario
from .solvers import SolverSettingError, check_settings, solve_admm, solve_subgradient
from .topology import KINDS, generate_topology

# named, not ``__name__``: run as ``python -m slicenet.cli`` this module is
# ``__main__``, outside the ``slicenet`` logger that ``main`` configures
log = logging.getLogger("slicenet.cli")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCENARIO = 3
EXIT_INFEASIBLE = 4
EXIT_SIMULATION = 5
EXIT_OTHER = 1


def _fail(category: str, message: object, code: int) -> int:
    print(f"error: {category}: {message}", file=sys.stderr)
    return code


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text if text.endswith("\n") else text + "\n")


def _common_flags(sub: argparse.ArgumentParser, *, seeded: bool = False) -> None:
    if seeded:
        sub.add_argument("--seed", type=int, default=0, help="seed for every random draw")
    sub.add_argument("--out", default=None, help="write output here instead of stdout")
    sub.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="stderr logging verbosity",
    )


def _list_of(item, what: str):
    """An argparse ``type``: comma-separated values, each read by ``item``."""

    def parse(text: str) -> tuple:
        try:
            return tuple(item(tok) for tok in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            ) from None

    return parse


def _variant(name: str) -> str:
    if name not in VARIANTS:
        raise ValueError(name)
    return name


def _estimates_for(args) -> tuple:
    """Load scenario and table, estimate per-link access shares."""
    scenario = load_scenario(args.scenario)
    table = AccessTable.load(args.table)
    graph = build_contention_graph(scenario)
    est = estimate_access(graph, table, fallback=args.fallback)
    return scenario, table, graph, est


# -- sim ----------------------------------------------------------------


def _cmd_sim(args) -> int:
    scenario = load_scenario(args.scenario)
    config = SimConfig(
        duration_s=args.duration,
        seed=args.seed,
        slot_time_s=args.slot_time,
        arrivals=args.arrivals,
        arrival_rate_hz=args.arrival_rate,
        occupancy=args.occupancy,
        doubling_backoff=args.doubling_backoff,
        record_timeline=args.timeline is not None,
    )
    outcome = run_coexistence(scenario, config)
    lines = ["id\ttech\tairtime_s\taccess_share\tnormalized\ttx\tcollisions"]
    for cid in sorted(outcome.stats):
        st = outcome.stats[cid]
        lines.append(
            f"{st.id}\t{st.tech}\t{st.airtime_s:.6f}\t{st.access_share:.6f}"
            f"\t{st.normalized_access:.6f}\t{st.tx_count}\t{st.collision_count}"
        )
    _emit("\n".join(lines), args.out)
    if args.timeline is not None:
        rows = ["id\tstart_s\tend_s\tcollided"]
        for cid, start, end, collided in outcome.timeline:
            rows.append(f"{cid}\t{start:.9f}\t{end:.9f}\t{int(collided)}")
        _emit("\n".join(rows), args.timeline)
    return EXIT_OK


# -- table --------------------------------------------------------------


def _cmd_table(args) -> int:
    # enumeration and canonical labeling stop at CANONICAL_MAX_VERTICES
    if not 1 <= args.max_size <= CANONICAL_MAX_VERTICES:
        message = f"--max-size must be within 1..{CANONICAL_MAX_VERTICES}, got {args.max_size}"
        return _fail("usage", message, EXIT_USAGE)
    config = SimConfig(
        duration_s=args.duration,
        seed=args.seed,
        occupancy=args.occupancy,
        doubling_backoff=args.doubling_backoff,
    )
    progress = None
    if args.log_level in ("debug", "info"):

        def progress(done: int, total: int, key: str) -> None:
            log.info("measured %d/%d (%s)", done, total, key)

    table = measure_table(
        args.max_size, config, cache_dir=args.cache, progress=progress
    )
    table.save(args.out)
    print(f"{len(table.entries)} graphs -> {args.out}")
    return EXIT_OK


# -- mboe ---------------------------------------------------------------


def _cmd_mboe(args) -> int:
    scenario, table, graph, est = _estimates_for(args)
    strangers = set(args.remove or ()) - {m.id for m in scenario.mnos}
    if strangers:
        return _fail("usage", f"--remove: no operator {min(strangers)} in the scenario", EXIT_USAGE)
    lines = ["vertex\taccess\tprovenance"]
    for vid in sorted(est.access):
        lines.append(f"{vid}\t{est.access[vid]:.6f}\t{est.provenance[vid]}")
    if args.remove:
        reduced = remove_mno(graph, args.remove)
        after = estimate_access(reduced, table, fallback=args.fallback)
        lines.append("")
        lines.append(f"without mno {','.join(map(str, args.remove))}:")
        lines.append("vertex\taccess\tprovenance")
        for vid in sorted(after.access):
            lines.append(f"{vid}\t{after.access[vid]:.6f}\t{after.provenance[vid]}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# -- solve --------------------------------------------------------------


def _solution_text(solution, trace, oracle_objective=None) -> str:
    problem = solution.problem
    lines = [
        f"method\t{solution.method}",
        f"variant\t{problem.variant}",
        f"objective\t{solution.objective:.6f}",
    ]
    if oracle_objective is not None:
        lines.append(f"oracle_objective\t{oracle_objective:.6f}")
    if solution.flags:
        lines.append("flags\t" + ",".join(solution.flags))
    if trace is not None:
        lines.append(f"iterations\t{len(trace.rows)}")
        lines.append(f"converged\t{int(trace.converged)}")
    lines.append("")
    lines.append("link\towner\taccess\tservice\tlicensed_hz\tunlicensed_share\trate_bps")
    rate = solution.throughput_bps
    for k, s in zip(problem.rows.tolist(), problem.cols.tolist()):
        lines.append(
            f"{problem.link_ids[k]}\t{problem.link_owner[k]}\t{problem.access[k]:.4f}"
            f"\t{problem.service_ids[s]}\t{solution.u_hz[k, s]:.1f}"
            f"\t{solution.alpha[k, s]:.6f}\t{rate[k, s]:.1f}"
        )
    lines.append("")
    lines.append("service\tworth")
    for s, sid in enumerate(problem.service_ids):
        lines.append(f"{sid}\t{solution.slice_worth(s):.6f}")
    return "\n".join(lines)


def _cmd_solve(args) -> int:
    # without --max-iter each iterative solver keeps its own default
    iters = {} if args.max_iter is None else {"max_iter": args.max_iter}
    settings = {
        "lp": {},
        "admm": {"gamma": args.gamma, "tol": args.tol, **iters},
        "subgrad": {"step_scale": args.step_scale, **iters},
    }[args.solver]
    # a setting the chosen solver cannot run with is a usage error,
    # reported before any estimation work
    check_settings(**settings)
    scenario, _, _, est = _estimates_for(args)
    problem = build_problem(scenario, est, variant=args.variant)
    trace = None
    # the iterative solvers cannot certify infeasibility; ask the
    # centralized solver first so bad inputs fail loudly
    oracle = solve_lp_oracle(problem)
    if args.solver == "lp":
        solution = oracle
    elif args.solver == "admm":
        solution, trace = solve_admm(problem, **settings)
    else:
        solution, trace = solve_subgradient(problem, **settings)
    if args.trace is not None and trace is not None:
        _emit(trace.to_text(), args.trace)
    reference = None if args.solver == "lp" else oracle.objective
    _emit(_solution_text(solution, trace, reference), args.out)
    return EXIT_OK


# -- game ---------------------------------------------------------------


def _cmd_game(args) -> int:
    scenario, _, _, est = _estimates_for(args)
    problem = build_problem(scenario, est, variant="s3")
    rule = {"egal": "egalitarian", "prop": "proportional"}[args.division]
    agreement = default_division(problem, rule=rule)
    worth = compute_worth(agreement)
    verdict = check_core(agreement)
    lines = [f"division\t{rule}", f"total\t{worth.total:.6f}", ""]
    lines.append("mno\tstandalone\tshare")
    for j, mno in enumerate(worth.members):
        lines.append(
            f"{mno}\t{agreement.standalone[j]:.6f}\t{agreement.member_share(mno):.6f}"
        )
    lines.append("")
    lines.append("service\tworth")
    for s, sid in enumerate(worth.service_ids):
        lines.append(f"{sid}\t{worth.slice_worth[s]:.6f}")
    lines.append("")
    lines.append(f"core\t{verdict}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# -- gen ----------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.out is None:
        return _fail("usage", "gen requires --out <scenario.json>", EXIT_USAGE)
    try:
        scenario = generate_topology(
            args.kind,
            seed=args.seed,
            n_mnos=args.mnos,
            bs_per_mno=args.bs_per_mno,
            ues_per_bs=args.ues_per_bs,
            cell_size_m=args.cell_size,
            wifi_aps=args.wifi_aps,
        )
    except ValueError as exc:
        # generation reads only its parameters, so one is outside its domain
        return _fail("usage", exc, EXIT_USAGE)
    save_scenario(scenario, args.out)
    print(
        f"{args.kind}: {len(scenario.nodes)} nodes, {len(scenario.links)} links"
        f" -> {args.out}"
    )
    return EXIT_OK


# -- experiment ---------------------------------------------------------


def _cmd_experiment(args) -> int:
    plan = ExperimentPlan(
        axis=args.axis,
        values=args.values,
        variants=args.variants,
        seed=args.seed,
        out_dir=args.out or "results",
        scenario_path=args.scenario,
        kind=args.kind,
        bs_per_mno=args.bs_per_mno,
        ues_per_bs=args.ues_per_bs,
        cell_size_m=args.cell_size,
        wifi_aps=args.wifi_aps,
        table_max_size=args.table_max_size,
        table_duration_s=args.table_duration,
    )
    # a plan that cannot run is a usage error, found before any table is built
    try:
        plan.validate()
    except ValueError as exc:
        return _fail("usage", exc, EXIT_USAGE)
    rows = run_experiment(plan)
    errors = sum(1 for r in rows if r.error)
    print(f"{len(rows)} rows ({errors} infeasible) -> {plan.out_dir}/results.tsv")
    return EXIT_OK


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicenet",
        description="network slicing over licensed and unlicensed spectrum",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("sim", help="run the coexistence simulator on a scenario")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--duration", type=float, default=10.0)
    sim.add_argument("--slot-time", type=float, default=9e-6)
    sim.add_argument("--arrivals", choices=("saturated", "poisson"), default="saturated")
    sim.add_argument("--arrival-rate", type=float, default=1000.0)
    sim.add_argument("--occupancy", choices=("exponential", "fixed"), default="exponential")
    sim.add_argument("--doubling-backoff", action="store_true")
    sim.add_argument("--timeline", default=None, help="also write a transmission log here")
    _common_flags(sim, seeded=True)
    sim.set_defaults(func=_cmd_sim)

    table = subs.add_parser("table", help="measure access shares for all small graphs")
    table.add_argument("--max-size", type=int, required=True)
    table.add_argument("--duration", type=float, default=10.0)
    table.add_argument("--occupancy", choices=("exponential", "fixed"), default="exponential")
    table.add_argument("--doubling-backoff", action="store_true")
    table.add_argument("--cache", default=None, help="directory of reusable measured tables")
    _common_flags(table, seeded=True)
    table.set_defaults(func=_cmd_table)

    mboe = subs.add_parser("mboe", help="estimate per-link access from a measured table")
    mboe.add_argument("--scenario", required=True)
    mboe.add_argument("--table", required=True)
    mboe.add_argument(
        "--remove", type=_list_of(int, "operator ids"), default=None,
        help="comma-separated operator ids to take off the air",
    )
    mboe.add_argument("--fallback", action="store_true", help="equal-share estimates for uncovered graphs")
    _common_flags(mboe)
    mboe.set_defaults(func=_cmd_mboe)

    solve = subs.add_parser("solve", help="allocate spectrum for one scenario")
    solve.add_argument("--scenario", required=True)
    solve.add_argument("--table", required=True)
    solve.add_argument("--variant", choices=("s1", "s2", "s3"), default="s3")
    solve.add_argument("--solver", choices=("admm", "lp", "subgrad"), default="admm")
    solve.add_argument("--gamma", type=float, default=1.0)
    solve.add_argument("--tol", type=float, default=1e-6)
    solve.add_argument(
        "--max-iter", type=int, default=None,
        help="iteration cap (default: the solver's own, 2000 for admm and 500 for subgrad)",
    )
    solve.add_argument("--step-scale", type=float, default=1.0)
    solve.add_argument("--fallback", action="store_true")
    solve.add_argument("--trace", default=None, help="write per-iteration progress here")
    _common_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    game = subs.add_parser("game", help="split cooperative revenue between operators")
    game.add_argument("--scenario", required=True)
    game.add_argument("--table", required=True)
    game.add_argument("--division", choices=("egal", "prop"), default="egal")
    game.add_argument("--fallback", action="store_true")
    _common_flags(game)
    game.set_defaults(func=_cmd_game)

    gen = subs.add_parser("gen", help="generate a scenario file")
    gen.add_argument("--kind", choices=KINDS, required=True)
    gen.add_argument("--mnos", type=int, default=2)
    gen.add_argument("--bs-per-mno", type=int, default=2)
    gen.add_argument("--ues-per-bs", type=int, default=1)
    gen.add_argument("--cell-size", type=float, default=400.0)
    gen.add_argument("--wifi-aps", type=int, default=2)
    _common_flags(gen, seeded=True)
    gen.set_defaults(func=_cmd_gen)

    exp = subs.add_parser("experiment", help="sweep one axis and write result tables")
    exp.add_argument("--axis", choices=AXES, required=True)
    exp.add_argument(
        "--values", type=_list_of(float, "numbers"), required=True,
        help="comma-separated sweep values",
    )
    exp.add_argument(
        "--variants", type=_list_of(_variant, f"variants of {', '.join(VARIANTS)}"),
        default=VARIANTS,
    )
    exp.add_argument("--scenario", default=None, help="base scenario for min_qos sweeps")
    exp.add_argument("--kind", choices=KINDS, default="two-mno-urban")
    exp.add_argument("--bs-per-mno", type=int, default=2)
    exp.add_argument("--ues-per-bs", type=int, default=1)
    exp.add_argument("--cell-size", type=float, default=400.0)
    exp.add_argument("--wifi-aps", type=int, default=2)
    exp.add_argument("--table-max-size", type=int, default=5)
    exp.add_argument("--table-duration", type=float, default=10.0)
    _common_flags(exp, seeded=True)
    exp.set_defaults(func=_cmd_experiment)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in a process reuses, built at the
    first call: parsing reads it and never changes it."""
    return build_parser()


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted, so
    each call's redirection of stderr applies."""

    def __init__(self):
        logging.Handler.__init__(self)
        self.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))

    @property
    def stream(self):
        return sys.stderr


_STDERR_LOG = _StderrHandler()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # every call sets its own level; the handler goes in once, next to
    # any that others have installed
    package_log = logging.getLogger("slicenet")
    package_log.addHandler(_STDERR_LOG)
    package_log.setLevel(args.log_level.upper())
    if args.command == "table" and args.out is None:
        return _fail("usage", "table requires --out <table.tsv>", EXIT_USAGE)
    try:
        return args.func(args)
    except SolverSettingError as exc:
        return _fail("usage", exc, EXIT_USAGE)
    except ScenarioError as exc:
        return _fail("scenario", exc, EXIT_SCENARIO)
    except NoOperatorsError as exc:
        return _fail("no-operators", exc, EXIT_SCENARIO)
    except TooManyOperatorsError as exc:
        return _fail("too-many-operators", exc, EXIT_SCENARIO)
    except InfeasibleProblem as exc:
        return _fail(f"infeasible-{exc.family}", exc.message, EXIT_INFEASIBLE)
    except (SimConfigError, GraphTooLargeError) as exc:
        return _fail("simulation", exc, EXIT_SIMULATION)
    except TableFormatError as exc:
        return _fail("table", exc, EXIT_SIMULATION)
    except TableMissError as exc:
        return _fail("table-miss", exc, EXIT_SIMULATION)
    except KeyError as exc:
        return _fail("estimate", exc, EXIT_SIMULATION)
    except FileNotFoundError as exc:
        return _fail("io", exc, EXIT_OTHER)
    except ValueError as exc:
        return _fail("invalid", exc, EXIT_OTHER)


if __name__ == "__main__":
    sys.exit(main())
