"""The benchmark's workloads.

Each workload makes its inputs from the workload seed in ``setup``,
groups them into passes, runs one request with ``execute`` (the timed
part) and checks that request's output with ``check`` (not timed).
``execute`` may call ``lap()`` between the steps of a request; the
runner samples the host speed there, outside the timed steps (see
``hostspeed``), and a request's time is the sum of its steps.
Every check mirrors one of the package's release gates; a failed check
counts the request as failed.

Requests run whole passes at a time, so every run covers the same mix
of input sizes however fast the program is.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from pathlib import Path

TABLE_MAX_SIZE = 5
#: connected technology-colored graphs of up to five vertices
TABLE_GRAPHS = 419


@dataclasses.dataclass
class Checked:
    problems: list[str]
    admm_gap: float = 0.0


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-12)


class TableCold:
    """One cold build of the measured access table per request, as the
    ``table`` command does it: every connected colored graph of up to
    five vertices simulated with no cache directory, then saved."""

    name = "table-cold"
    #: reference-kernel runs per host-speed sample (see ``hostspeed``)
    clock_repeats = 5
    #: simulated seconds per graph; short, so a run holds many builds
    duration_s = 0.2

    def setup(self, seed: int, workdir: Path):
        from slicenet.contention import enumerate_connected_colored_graphs

        # the build imports networkx lazily on its first enumeration
        enumerate_connected_colored_graphs(1)
        return seed

    def pass_items(self, seed, index: int) -> list:
        # each build simulates on its own seed
        return [seed * 1000 + index]

    def execute(self, item, workdir: Path, lap):
        from slicenet.coexist import SimConfig, measure_table

        table = measure_table(
            TABLE_MAX_SIZE, SimConfig(duration_s=self.duration_s, seed=item)
        )
        path = workdir / "table.tsv"
        table.save(path)
        return table, path

    def check(self, item, output) -> Checked:
        table, path = output
        problems = []
        if len(table.entries) != TABLE_GRAPHS:
            problems.append(f"{len(table.entries)} entries, expected {TABLE_GRAPHS}")
        for key, entry in table.entries.items():
            for x in entry.access + entry.raw_share:
                if not (math.isfinite(x) and 0.0 <= x <= 1.5):
                    problems.append(f"entry {key} holds {x!r}")
                    break
        solo = table.entries.get("1;L;0;0")
        # gate 4: an unopposed station matches the renewal closed form
        if solo is None or abs(solo.access[0] - 1.0) > 0.02:
            problems.append(f"single-vertex entry {solo} not within 0.02 of 1.0")
        rows = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
        if len(rows) != len(table.entries):
            problems.append(f"saved {len(rows)} rows for {len(table.entries)} entries")
        return Checked(problems)


class MarketRandom:
    """Random slicing markets, each solved three ways and then played as
    a coalition game: the path of ``scripts/convergence_traces.py`` plus
    release gate 7.

    A pass holds one market for every (operators, links, services)
    triple that ``random_problem`` draws, in seeded order, so each pass
    has the same size mix and the latency percentiles do not hang on
    how many large markets one seed happened to draw.
    """

    name = "market-random"
    clock_repeats = 1
    passes = 10

    def setup(self, seed: int, workdir: Path):
        import numpy as np

        from slicenet.topology import random_problem

        rng = np.random.default_rng(seed)
        order_rng = np.random.default_rng([seed, 1])
        cells = [(m, n, k) for m in range(2, 5) for n in range(m, 11) for k in (2, 3)]
        spare: dict[tuple[int, int, int], list] = {cell: [] for cell in cells}
        pool = []
        for _ in range(self.passes):
            batch = []
            for cell in cells:
                while not spare[cell]:
                    problem = random_problem(rng, feasible_for="coalitions")
                    drawn = (len(problem.members), problem.n_links, problem.n_services)
                    spare[drawn].append(problem)
                batch.append(spare[cell].pop(0))
            pool.append([batch[i] for i in order_rng.permutation(len(batch))])
        return pool

    def pass_items(self, inputs, index: int) -> list:
        return inputs[index % len(inputs)]

    def execute(self, problem, workdir: Path, lap):
        from slicenet.game import check_core, compute_worth, convexity_probe, default_division
        from slicenet.problem import solve_lp_oracle
        from slicenet.solvers import solve_admm, solve_subgradient

        oracle = solve_lp_oracle(problem)
        admm, _ = solve_admm(problem)
        solve_subgradient(problem)
        agreement = default_division(problem)
        compute_worth(agreement)
        verdict = check_core(agreement)
        probe = convexity_probe(problem)
        return oracle.objective, admm.objective, verdict, probe

    def check(self, problem, output) -> Checked:
        oracle, admm, verdict, probe = output
        gap = _rel_gap(admm, oracle)
        problems = []
        # gate 1: the distributed solver matches the exact oracle
        if not gap <= 1e-4:
            problems.append(f"ADMM {admm!r} vs LP {oracle!r}: relative gap {gap:.2e}")
        # gate 7: the default division is stable and the game convex
        if not verdict.in_core:
            problems.append(f"division not in core: {verdict.reason}")
        if not probe.ok:
            problems.append(f"{len(probe.violations)} convexity violations")
        return Checked(problems, gap)


#: QoS floors of about 1 and 2 Mb/s; under the default 10 and 20 Mb/s
#: floors dense deployments are infeasible and ``solve`` would only
#: exercise the infeasibility diagnosis
SERVICE_FLOORS_BPS = ((1, 1.0e6, 1.0e-6), (2, 2.0e6, 2.0e-6))

#: (kind, operators, stations per operator, users per station, Wi-Fi
#: access points, cell size in m); every deployment has 200 contenders
#: (links + access points).  Sizes are kept equal so that the median and
#: the 90th percentile each rest on several deployments, not on the one
#: largest deployment of a seed.
DEPLOYMENTS = (
    ("two-mno-urban", 2, 20, 4, 40, 200.0),
    ("uniform-random", 2, 25, 3, 50, 150.0),
    ("two-mno-urban", 2, 10, 6, 80, 200.0),
    ("uniform-random", 3, 15, 4, 20, 200.0),
    ("two-mno-urban", 2, 45, 2, 20, 200.0),
    ("uniform-random", 2, 16, 5, 40, 150.0),
    ("two-mno-urban", 2, 15, 5, 50, 150.0),
    ("uniform-random", 3, 10, 6, 20, 200.0),
    ("uniform-random", 3, 20, 3, 20, 150.0),
    ("two-mno-urban", 2, 12, 6, 56, 200.0),
    ("uniform-random", 2, 40, 2, 40, 200.0),
    ("two-mno-urban", 2, 50, 1, 100, 150.0),
)


@dataclasses.dataclass(frozen=True)
class Deployment:
    scenario: Path
    table: Path
    contenders: int
    sim_seed: int


class DeployDense:
    """Dense generated deployments planned and simulated through the
    command line, in process: ``solve --fallback`` (ADMM, ``s3``), then
    ``game --fallback``, then ``sim`` for a short fixed duration."""

    name = "deploy-dense"
    clock_repeats = 6
    table_duration_s = 0.2
    sim_duration_s = 0.02

    def setup(self, seed: int, workdir: Path):
        from slicenet.coexist import SimConfig, measure_table
        from slicenet.scenario import ServiceType, save_scenario
        from slicenet.topology import generate_topology

        services = tuple(
            ServiceType(id=sid, min_throughput_bps=floor, price_per_bit=price)
            for sid, floor, price in SERVICE_FLOORS_BPS
        )
        table_path = workdir / "table.tsv"
        measure_table(
            TABLE_MAX_SIZE, SimConfig(duration_s=self.table_duration_s, seed=seed)
        ).save(table_path)
        deployments = []
        for i, (kind, mnos, bs, ues, aps, cell) in enumerate(DEPLOYMENTS):
            scenario = generate_topology(
                kind,
                seed=seed * 1000 + i,
                n_mnos=mnos,
                bs_per_mno=bs,
                ues_per_bs=ues,
                cell_size_m=cell,
                wifi_aps=aps,
            )
            scenario = dataclasses.replace(scenario, services=services)
            path = workdir / f"deploy{i:02d}.yaml"
            save_scenario(scenario, path)
            contenders = len(scenario.links) + aps
            deployments.append(Deployment(path, table_path, contenders, seed * 1000 + i))
        return deployments

    def pass_items(self, inputs, index: int) -> list:
        return inputs

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str, str]:
        from slicenet.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def execute(self, item: Deployment, workdir: Path, lap):
        common = ["--scenario", str(item.scenario), "--table", str(item.table), "--fallback"]
        solve = self._cli(["solve", *common, "--variant", "s3", "--solver", "admm"])
        lap()
        game = self._cli(["game", *common])
        lap()
        sim = self._cli(
            [
                "sim",
                "--scenario",
                str(item.scenario),
                "--duration",
                repr(self.sim_duration_s),
                "--seed",
                str(item.sim_seed),
            ]
        )
        return solve, game, sim

    def check(self, item: Deployment, output) -> Checked:
        problems = []
        for name, (code, _, err) in zip(("solve", "game", "sim"), output):
            if code != 0:
                problems.append(f"{name} exited {code}: {err.strip()}")
        if problems:
            return Checked(problems)
        (_, solve_out, _), (_, game_out, _), (_, sim_out, _) = output
        head = dict(
            line.split("\t", 1) for line in solve_out.splitlines() if line.count("\t") == 1
        )
        gap = math.inf
        try:
            gap = _rel_gap(float(head["objective"]), float(head["oracle_objective"]))
        except (KeyError, ValueError):
            problems.append("solve printed no objective/oracle_objective pair")
        # gate 1 again, at hundreds of links
        if not gap <= 1e-4:
            problems.append(f"solve objective off its oracle by {gap:.2e}")
        if "core\tin core" not in game_out.splitlines():
            problems.append("game did not report 'core\\tin core'")
        rows = sim_out.splitlines()[1:]
        if len(rows) != item.contenders:
            problems.append(f"sim reported {len(rows)} of {item.contenders} contenders")
        return Checked(problems, gap if math.isfinite(gap) else 0.0)


WORKLOADS = {w.name: w for w in (TableCold(), MarketRandom(), DeployDense())}
