"""Release gates for the package, one verdict line per numbered criterion.

Each test prints ``criterion N: PASS|FAIL (measured margin)`` with
capture suspended, so a batch log always carries the full scoreboard.
The tests themselves assert the same condition.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from slicenet.coexist import (
    SimConfig,
    entry_seed,
    isolated_access_share,
    simulate_graph,
)
from slicenet.contention import (
    ContentionGraph,
    Vertex,
    enumerate_connected_colored_graphs,
    graph_from_canonical,
    independence_number,
    maximum_independent_sets,
)
from slicenet.game import check_core, convexity_probe, default_division
from slicenet.mboe import estimate_access
from slicenet.problem import VARIANTS, as_variant, solve_lp_oracle
from slicenet.projections import feasible_totals
from slicenet.scenario import LAA, NODE_DEFAULTS, WIFI
from slicenet.solvers import (
    alpha_subproblem,
    solve_admm,
    solve_subgradient,
    w_subproblem,
    z_projection,
)
from slicenet.topology import bottleneck_preset, random_problem

from batch_means import batch_access, standard_error

GRID_STEP = 1e-3
# gate 5's reference precision: a tenth of its 0.1 tolerance, within a
# bounded simulation budget
REFERENCE_SE = 0.01
REFERENCE_CAP_S = 320.0


@pytest.fixture()
def verdict(capfd):
    def emit(n: int, ok: bool, detail: str) -> str:
        with capfd.disabled():
            print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
        return detail

    return emit


@pytest.fixture(scope="module")
def solver_study():
    """Fifty random instances solved three ways, shared by the first
    two gates."""
    rng = np.random.default_rng(42)
    records = []
    for _ in range(50):
        problem = random_problem(rng)
        oracle = solve_lp_oracle(problem)
        start = time.perf_counter()
        solution, admm_trace = solve_admm(problem)
        elapsed = time.perf_counter() - start
        _, sub_trace = solve_subgradient(problem)
        records.append((oracle, solution, admm_trace, sub_trace, elapsed))
    return records


def test_criterion_1_distributed_solver_matches_oracle(solver_study, verdict):
    worst_gap = 0.0
    worst_time = 0.0
    for oracle, solution, _, _, elapsed in solver_study:
        gap = abs(solution.objective - oracle.objective) / abs(oracle.objective)
        worst_gap = max(worst_gap, gap)
        worst_time = max(worst_time, elapsed)
    ok = worst_gap <= 1e-4 and worst_time < 5.0
    detail = verdict(
        1,
        ok,
        f"50 instances, max relative gap {worst_gap:.2e} vs 1e-4,"
        f" max runtime {worst_time:.2f}s vs 5s",
    )
    assert ok, detail


def test_criterion_2_fewer_iterations_than_baseline(solver_study, verdict):
    wins = 0
    for oracle, _, admm_trace, sub_trace, _ in solver_study:
        fast = admm_trace.iterations_to_gap(oracle.objective)
        slow = sub_trace.iterations_to_gap(oracle.objective)
        if fast is not None and (slow is None or fast < slow):
            wins += 1
    ok = wins >= 45
    detail = verdict(
        2, ok, f"splitting method reaches the 1% gap first on {wins}/50, need 45"
    )
    assert ok, detail


def test_criterion_3_joint_variant_dominates(verdict):
    rng = np.random.default_rng(3)
    dominated = 0
    for _ in range(50):
        problem = random_problem(rng, feasible_for="all")
        obj = {v: solve_lp_oracle(as_variant(problem, v)).objective for v in VARIANTS}
        # slack is the centralized solver's own tolerance, nothing more
        slack = 1e-7 * max(1.0, abs(obj["s3"]))
        if obj["s3"] >= max(obj["s1"], obj["s2"]) - slack:
            dominated += 1

    preset = bottleneck_preset()
    joint = solve_lp_oracle(preset).objective
    unlicensed = solve_lp_oracle(as_variant(preset, "s1")).objective
    licensed = solve_lp_oracle(as_variant(preset, "s2")).objective
    ratio = joint / max(unlicensed, licensed)
    ok = dominated == 50 and joint >= 1.5 * unlicensed and joint >= 1.5 * licensed
    detail = verdict(
        3,
        ok,
        f"dominates on {dominated}/50 instances,"
        f" bottleneck preset ratio {ratio:.2f} vs 1.5",
    )
    assert ok, detail


def test_criterion_4_simulator_tracks_renewal_theory(verdict):
    errors = []
    for tech in (LAA, WIFI):
        p = NODE_DEFAULTS[tech]
        closed = isolated_access_share(
            p["difs_s"], p["txop_s"], p["cw_min"], p["cw_max"]
        )
        solo = ContentionGraph.build([Vertex("solo", tech)], [])
        got = simulate_graph(solo, SimConfig(duration_s=10.0, seed=4))
        errors.append(abs(got.stats["solo"].access_share - closed))
    isolated_ok = max(errors) <= 0.02

    pair = ContentionGraph.build(
        [Vertex("a", LAA), Vertex("b", LAA)], [("a", "b")]
    )
    stats = simulate_graph(pair, SimConfig(duration_s=10.0, seed=5)).stats
    half = (stats["a"].access_share + stats["b"].access_share) / 2.0
    split_err = max(
        abs(stats["a"].access_share - half), abs(stats["b"].access_share - half)
    )
    split_ok = split_err <= 0.05

    mixed = ContentionGraph.build(
        [Vertex("c", LAA), Vertex("w", WIFI)], [("c", "w")]
    )
    ordered = 0
    for seed in range(20):
        s = simulate_graph(mixed, SimConfig(duration_s=5.0, seed=seed)).stats
        if s["c"].access_share > s["w"].access_share:
            ordered += 1

    ok = isolated_ok and split_ok and ordered == 20
    detail = verdict(
        4,
        ok,
        f"isolated error {max(errors):.3f} vs 0.02,"
        f" pair split error {split_err:.3f} vs 0.05,"
        f" cellular wins access on {ordered}/20 seeds",
    )
    assert ok, detail


def _reference_run(graph, seed):
    """Direct simulation of ``graph`` long enough that every vertex's
    batch-means standard error is at most REFERENCE_SE, or
    REFERENCE_CAP_S long.  The length is chosen from the run's own
    error alone; reruns keep the seed, so they extend the same sample
    path.  Returns the outcome, its per-vertex errors and its length."""
    config = SimConfig(duration_s=10.0, seed=seed, record_timeline=True)
    while True:
        outcome = simulate_graph(graph, config)
        errors = {
            vid: standard_error(values)
            for vid, values in batch_access(outcome, config).items()
        }
        worst = max(errors.values())
        if worst <= REFERENCE_SE or config.duration_s >= REFERENCE_CAP_S:
            return outcome, errors, config.duration_s
        longer = config.duration_s * (worst / REFERENCE_SE) ** 2
        config = replace(config, duration_s=min(REFERENCE_CAP_S, longer))


def test_criterion_5_table_estimates_track_direct_simulation(table5, verdict):
    """Every labeled contention graph the table covers, re-simulated
    from scratch on a disjoint seed stream, compared vertex by vertex.

    The table side is the 10 s ``table5`` fixture.  The reference side
    is lengthened wherever its own batch-means error shows that 10 s
    cannot resolve the 0.1 tolerance (slowly mixing graphs with
    competing maximum independent sets), so a red verdict measures the
    table's error rather than the reference's."""
    checked = 0
    offenders = []
    worst = (0.0, "", "", 0.0, 0.0)
    lengthened = 0
    imprecise = []
    for form in enumerate_connected_colored_graphs(5):
        graph = graph_from_canonical(form.size, form.colors, form.edge_bits)
        estimate = estimate_access(graph, table5)
        reference, errors, length = _reference_run(
            graph, entry_seed(1000, form.key)
        )
        lengthened += length > 10.0
        if max(errors.values()) > REFERENCE_SE:
            imprecise.append(form.key)
        for vid in graph.ids:
            diff = abs(estimate.access[vid] - reference.stats[vid].normalized_access)
            checked += 1
            worst = max(worst, (diff, form.key, vid, length, errors[vid]))
            if diff > 0.1:
                offenders.append((diff, form.key, vid))
    ok = not offenders
    offenders.sort(reverse=True)
    head = "; ".join(f"{d:.3f} on {key}:{vid}" for d, key, vid in offenders[:3])
    diff, key, vid, length, se = worst
    detail = verdict(
        5,
        ok,
        f"{len(offenders)}/{checked} vertex estimates off by more than 0.1,"
        f" worst {diff:.3f} on {key}:{vid} against a {length:.0f}s reference"
        f" with SE {se:.3f}; {lengthened} references lengthened to SE"
        f" <= {REFERENCE_SE}, {len(imprecise)} stopped short of it at the"
        f" {REFERENCE_CAP_S:.0f}s cap"
        + (f" ({', '.join(imprecise)})" if imprecise else "")
        + (f"; offenders: {head}" if head else ""),
    )
    assert ok, detail


def test_criterion_6_independent_set_enumeration_is_exact(verdict):
    rng = np.random.default_rng(6)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        ids = [f"n{i}" for i in range(n)]
        vertices = [
            Vertex(vid, LAA if rng.random() < 0.5 else WIFI) for vid in ids
        ]
        p_edge = float(rng.uniform(0.1, 0.7))
        edges = [
            (ids[i], ids[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p_edge
        ]
        graph = ContentionGraph.build(vertices, edges)

        adj = [0] * n
        pos = {vid: i for i, vid in enumerate(ids)}
        for a, b in graph.edges:
            adj[pos[a]] |= 1 << pos[b]
            adj[pos[b]] |= 1 << pos[a]
        best, masks = 0, []
        for mask in range(1 << n):
            if any(adj[i] & mask for i in range(n) if mask >> i & 1):
                continue
            size = mask.bit_count()
            if size > best:
                best, masks = size, [mask]
            elif size == best:
                masks.append(mask)
        reference = {
            frozenset(ids[i] for i in range(n) if m >> i & 1) for m in masks
        }

        got = {frozenset(s) for s in maximum_independent_sets(graph)}
        if got != reference or independence_number(graph) != best:
            mismatches += 1
    ok = mismatches == 0
    detail = verdict(6, ok, f"{mismatches}/200 graphs disagree with brute force")
    assert ok, detail


def test_criterion_7_division_is_stable_and_game_is_convex(verdict):
    rng = np.random.default_rng(7)
    stable = 0
    convex = 0
    triples = 0
    for _ in range(50):
        problem = random_problem(rng, feasible_for="coalitions")
        agreement = default_division(problem)
        if check_core(agreement).in_core:
            stable += 1
        report = convexity_probe(problem)
        triples += report.checked
        if report.ok:
            convex += 1
    ok = stable == 50 and convex == 50
    detail = verdict(
        7,
        ok,
        f"default division in core on {stable}/50,"
        f" zero marginal-value violations on {convex}/50"
        f" ({triples} triples checked)",
    )
    assert ok, detail


def test_criterion_8_solver_blocks_match_brute_force(verdict):
    rng = np.random.default_rng(8)
    worst = 0.0
    # the blocks take one row per link; no slice is absent
    absent = np.zeros((1, 2), bool)

    # airtime block: the feasible set is a line segment, so one grid axis
    for _ in range(40):
        z = rng.uniform(-0.5, 1.5, size=2)
        lam = rng.uniform(-0.5, 0.5, size=2)
        gains = rng.uniform(0.0, 2.0, size=2)
        gamma = float(rng.uniform(0.2, 3.0))
        xi = float(rng.uniform(0.1, 1.9))
        # one link's row, as solve_admm passes it
        total = feasible_totals(np.array([xi]), np.array([2]), 1.0)
        got = alpha_subproblem(z[None], lam[None], gamma, total, absent, gains[None])[0]
        a1 = np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP)
        a0 = xi - a1
        t = z - lam
        obj = -(gains[0] * a0 + gains[1] * a1) + gamma / 2 * (
            (a0 - t[0]) ** 2 + (a1 - t[1]) ** 2
        )
        obj[(a0 < 0.0) | (a0 > 1.0)] = np.inf
        k = int(np.argmin(obj))
        worst = max(worst, float(np.linalg.norm(got - [a0[k], a1[k]])))

    # licensed block: full two-dimensional grid under the budget line
    for _ in range(30):
        z = rng.uniform(-0.5, 1.5, size=2)
        lam = rng.uniform(-0.5, 0.5, size=2)
        gains = rng.uniform(0.0, 2.0, size=2)
        gamma = float(rng.uniform(0.2, 3.0))
        budget = float(rng.uniform(0.3, 1.2))
        got = w_subproblem(
            z[None], lam[None], gamma, np.array([budget]), absent, gains[None]
        )[0]
        ax = np.arange(0.0, budget + GRID_STEP / 2, GRID_STEP)
        g0, g1 = np.meshgrid(ax, ax, indexing="ij")
        t = z - lam
        obj = -(gains[0] * g0 + gains[1] * g1) + gamma / 2 * (
            (g0 - t[0]) ** 2 + (g1 - t[1]) ** 2
        )
        obj[g0 + g1 > budget + 1e-12] = np.inf
        k = int(np.argmin(obj))
        worst = max(worst, float(np.linalg.norm(got - [g0.flat[k], g1.flat[k]])))

    # consensus block: scalar halfspace projections, plus the metric
    # properties that make the fixed-point argument work
    metric_ok = True
    previous = None
    for _ in range(30):
        u, a, du, da = rng.uniform(-1.0, 1.0, size=4)
        beta = float(rng.uniform(0.1, 3.0))
        bound = float(rng.uniform(-0.5, 1.5))
        zu, za = z_projection(u, a, du, da, beta, bound)
        point = np.array([u + du, a + da])
        if point[0] + beta * point[1] >= bound:
            ref = point
        else:
            span = np.arange(-3.0, 4.0, GRID_STEP)
            ug = bound - beta * span
            k = int(np.argmin((ug - point[0]) ** 2 + (span - point[1]) ** 2))
            ref = np.array([ug[k], span[k]])
        worst = max(worst, float(np.linalg.norm([zu - ref[0], za - ref[1]])))

        zu2, za2 = z_projection(zu, za, 0.0, 0.0, beta, bound)
        metric_ok &= abs(zu2 - zu) <= 1e-9 and abs(za2 - za) <= 1e-9
        if previous is not None:
            pu, pa = z_projection(previous[0], previous[1], 0.0, 0.0, beta, bound)
            lhs = np.hypot(zu - pu, za - pa)
            metric_ok &= lhs <= np.linalg.norm(point - previous) + 1e-9
        previous = point

    ok = worst <= 2 * GRID_STEP and metric_ok
    detail = verdict(
        8,
        ok,
        f"100 cases, worst grid deviation {worst:.2e} vs {2 * GRID_STEP:.0e},"
        f" projection metric properties {'hold' if metric_ok else 'violated'}",
    )
    assert ok, detail
