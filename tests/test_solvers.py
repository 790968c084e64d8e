"""Distributed solver and baseline: agreement with the exact optimum,
convergence accounting, and the privacy boundary of per-link updates."""

import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from slicenet import solvers
from slicenet.problem import VARIANTS, InfeasibleProblem, as_variant, solve_lp_oracle
from slicenet.projections import feasible_totals, project_budget_box, project_capped_simplex_eq
from slicenet.solvers import (
    REPAIR_MAX_ROUNDS,
    REPAIR_TOL,
    ConvergenceTrace,
    SolverSettingError,
    TraceRow,
    _Scaled,
    dual_update,
    project_links,
    solve_admm,
    solve_subgradient,
    z_projection,
)
from slicenet.topology import bottleneck_preset, random_problem
from test_problem import _single_link


def test_single_link_converges_fast():
    problem = _single_link()
    solution, trace = solve_admm(problem)
    assert trace.converged
    assert len(trace.rows) <= 200
    assert math.isclose(solution.objective, 80.0, rel_tol=1e-6)
    assert solution.max_violation() <= 1e-6


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(10):
        problem = random_problem(rng)
        oracle = solve_lp_oracle(problem)
        solution, trace = solve_admm(problem)
        assert trace.converged, f"failed on {problem.link_ids}"
        gap = abs(solution.objective - oracle.objective)
        assert gap <= 1e-4 * abs(oracle.objective)
        assert solution.max_violation() <= 1e-6


def test_bottleneck_agreement():
    problem = bottleneck_preset()
    solution, _ = solve_admm(problem)
    assert math.isclose(solution.objective, 300.0, rel_tol=1e-5)


def test_trace_accounting():
    problem = bottleneck_preset()
    solution, trace = solve_admm(problem)
    assert [r.iteration for r in trace.rows] == list(range(1, len(trace.rows) + 1))
    assert trace.gamma_final > 0.0
    for row in trace.rows:
        assert math.isfinite(row.objective)
        assert row.primal_residual >= 0.0
        assert row.dual_residual >= 0.0
    # the final iterate is the converged one
    assert trace.rows[-1].primal_residual <= 1e-6 * math.sqrt(2 * 4)
    hit = trace.iterations_to_gap(solution.objective)
    assert hit is not None and hit <= len(trace.rows)
    assert trace.iterations_to_gap(solution.objective * 5.0) is None


def test_trace_text_round_trip_shape():
    _, trace = solve_admm(_single_link())
    lines = trace.to_text().splitlines()
    assert lines[0].startswith("# method")
    assert lines[1].split("\t") == ["iteration", "objective", "primal", "dual"]
    assert lines[-1] == "# converged\tTrue"
    assert len(lines) == 3 + len(trace.rows)


def test_subgradient_zero_step_is_constant():
    problem = bottleneck_preset()
    _, trace = solve_subgradient(problem, max_iter=40, step_scale=0.0)
    objectives = {f"{r.objective:.12g}" for r in trace.rows}
    assert len(objectives) == 1


def test_subgradient_returns_feasible_average():
    rng = np.random.default_rng(22)
    problem = random_problem(rng)
    solution, trace = solve_subgradient(problem, max_iter=300)
    assert "ergodic-average" in solution.flags
    assert solution.max_violation() <= 1e-6
    oracle = solve_lp_oracle(problem)
    # a finite-step dual method lands near, not at, the optimum
    assert solution.objective <= oracle.objective * 1.001


def test_admm_usually_reaches_gap_first():
    # the baseline occasionally lucks into an early hit (the symmetric
    # two-link preset is one such case), so the claim is a majority one
    rng = np.random.default_rng(23)
    wins = 0
    for _ in range(10):
        problem = random_problem(rng)
        oracle = solve_lp_oracle(problem)
        _, admm_trace = solve_admm(problem)
        _, sub_trace = solve_subgradient(problem, max_iter=2000)
        admm_hit = admm_trace.iterations_to_gap(oracle.objective)
        sub_hit = sub_trace.iterations_to_gap(oracle.objective)
        assert admm_hit is not None
        if sub_hit is None or admm_hit < sub_hit:
            wins += 1
    assert wins >= 8


def test_link_updates_take_only_local_state():
    # the per-link solves must stay expressible in link-local data: the
    # stacked step takes the target that each link's consensus rows,
    # dual, penalty and gains make, the links' own totals and offered
    # slices, and ``out`` only receives the updated rows
    assert set(inspect.signature(project_links).parameters) == {"y", "totals", "absent", "out"}
    # and each link's row of the update, as solve_admm runs it, reads only
    # that link's rows: redrawing every other link's rows leaves it bit
    # for bit the same
    rng = np.random.default_rng(25)

    def draw(n, m):
        """z, dual, airtime total, budget, absent and gains, one row a link."""
        offered = rng.random((n, m)) < 0.7
        count = offered.sum(axis=1)
        return (
            rng.uniform(-0.5, 1.5, (n, m)),
            rng.uniform(-0.5, 0.5, (n, m)),
            feasible_totals(rng.uniform(0.0, 1.0, n) * count, count, 1.0),
            rng.uniform(0.0, 1.5, n),
            ~offered,
            np.where(offered, rng.uniform(0.0, 2.0, (n, m)), np.nan),
        )

    def stacked(gamma, z, dual, total, budget, absent, gains):
        """Both halves in one call, as solve_admm runs them; airtime
        totals are shares of at most 1 there."""
        y = np.stack([z, z]) - np.stack([dual, dual]) + np.stack([gains, gains]) / gamma
        totals = np.stack([budget, np.minimum(total, 1.0)])
        return project_links(y, totals, np.stack([absent, absent]), np.empty_like(y))

    for _ in range(40):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.2, 3.0))
        link = int(rng.integers(n))
        mine = draw(n, m)
        theirs = draw(n, m)
        for a, b in zip(mine, theirs):
            b[link] = a[link]
        want, got = stacked(gamma, *mine), stacked(gamma, *theirs)
        assert got[:, link].tobytes() == want[:, link].tobytes()


def test_stacked_step_matches_the_block_functions():
    # a link's airtime total is a share of at most 1, so the cap of the
    # airtime simplex never binds and project_links takes both halves in
    # one water fill: against the public projections of the same target,
    # the licensed half is the budget box bit for bit, the airtime half
    # the capped simplex at cap 1 within roundoff and never above 1
    rng = np.random.default_rng(26)
    worst = 0.0
    for _ in range(400):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        offered = rng.random((n, m)) < 0.7
        count = offered.sum(axis=1)
        # airtime totals below 1, at exactly 1 and at 0; budgets that
        # bind, that do not and that are 0
        xi = rng.uniform(0.0, 1.0, n)
        xi[rng.random(n) < 0.3] = 1.0
        xi[(rng.random(n) < 0.1) | (count == 0)] = 0.0
        total = feasible_totals(xi, count, 1.0)
        budget = rng.uniform(0.0, 1.5, n)
        budget[rng.random(n) < 0.2] = 0.0
        z, dual = rng.uniform(-0.5, 1.5, (2, n, m)), rng.uniform(-0.5, 0.5, (2, n, m))
        gains = np.where(offered, rng.uniform(0.0, 2.0, (2, n, m)), np.nan)
        gamma = float(rng.uniform(0.2, 3.0))
        absent = np.stack([~offered, ~offered])
        target = z - dual + gains / gamma
        got = project_links(target, np.stack([budget, total]), absent, np.empty((2, n, m)))
        licensed = project_budget_box(target[0], budget)
        airtime = project_capped_simplex_eq(target[1], total, cap=1.0)
        assert got[0].tobytes() == licensed.tobytes()
        assert np.all(got[1] <= 1.0) and np.all(got[1] >= 0.0)
        assert np.all(got[absent] == 0.0)
        worst = max(worst, np.abs(got[1] - airtime).max())
    assert worst <= 1e-15


# the alpha (airtime) and w (licensed) subproblems of one ADMM step, as
# project_links solves them on the target z - dual + gains / gamma


def _step(target, budget, total):
    """project_links on one licensed and one airtime block, no slice absent."""
    y = np.stack([target, target])
    absent = np.zeros(y.shape, bool)
    return project_links(y, np.stack([budget, total]), absent, np.empty_like(y))


def test_alpha_subproblem_is_projection():
    out = _step(np.array([[1.5, 0.1]]), np.array([0.0]), np.array([1.0]))[1]
    assert np.allclose(out, [[1.0, 0.0]])
    assert math.isclose(out.sum(), 1.0, abs_tol=1e-12)


def test_w_subproblem_respects_budget():
    out = _step(np.array([[3.0, 2.0]]), np.array([4.0]), np.array([0.0]))[0]
    assert out.sum() <= 4.0 + 1e-9
    assert np.all(out >= 0.0)


def test_subproblems_accept_stacked_blocks():
    # one call over stacked links equals one call per link on its
    # offered slices; NaN in the target marks the slices a link does not
    # offer
    rng = np.random.default_rng(24)
    z, lam = rng.uniform(-0.5, 1.5, (2, 5, 3)), rng.uniform(-0.5, 0.5, (2, 5, 3))
    gains = rng.uniform(0.0, 2.0, (2, 5, 3))
    offered = np.array([[1, 1, 1], [1, 0, 1], [0, 0, 1], [0, 1, 0], [1, 1, 0]], bool)
    target = z - lam + np.where(offered, gains, np.nan) / 0.7
    xi = feasible_totals(rng.uniform(0.0, 1.0, 5), offered.sum(axis=1), 1.0)
    totals = np.stack([rng.uniform(0.1, 1.0, 5), xi])
    absent = np.stack([~offered, ~offered])
    stacked = project_links(target, totals, absent, np.empty_like(target))
    assert np.all(stacked[absent] == 0.0)
    for k, row in enumerate(offered):
        y = target[:, k:k + 1, row]
        one = project_links(y, totals[:, k:k + 1], np.zeros(y.shape, bool), np.empty_like(y))
        assert np.array_equal(stacked[:, k, row], one[:, 0])


def test_z_projection_enforces_qos_bound():
    u, a = z_projection(np.zeros((2, 1)), np.zeros((2, 1)), 1.0, np.array([1.0]))
    assert np.allclose(u, [0.5]) and np.allclose(a, [0.5])


def test_dual_update_accumulates_disagreement():
    dual = np.zeros(2)
    d = dual_update(dual, np.array([1.0, 0.0]), np.array([0.0, 0.5]))
    assert d is dual
    assert np.allclose(d, [1.0, -0.5])


def test_link_offering_no_slice_stays_zero():
    from dataclasses import replace

    base = bottleneck_preset()
    problem = replace(
        base,
        link_ids=base.link_ids + ("m1b2u1",),
        link_owner=base.link_owner + (1,),
        rate_bps_hz=np.append(base.rate_bps_hz, 4.0),
        access=np.append(base.access, 0.0),
        offered=np.vstack([base.offered, [False, False]]),
        min_rate_bps=np.vstack([base.min_rate_bps, [0.0, 0.0]]),
        price_per_bit=np.vstack([base.price_per_bit, [1.0e-6, 2.0e-6]]),
    )
    oracle = solve_lp_oracle(problem)
    admm, trace = solve_admm(problem)
    sub, _ = solve_subgradient(problem, max_iter=200)
    assert trace.converged
    assert abs(admm.objective - oracle.objective) <= 1e-4 * abs(oracle.objective)
    for solution in (admm, sub):
        assert solution.u_hz[2].tolist() == [0.0, 0.0] and solution.alpha[2].tolist() == [0.0, 0.0]
        assert solution.max_violation() <= 1e-6


@pytest.mark.parametrize(
    "solve, settings",
    [
        (solve_admm, {"gamma": -1.0}),
        (solve_admm, {"gamma": 0.0}),
        (solve_admm, {"gamma": math.nan}),
        (solve_admm, {"gamma": math.inf}),
        (solve_admm, {"tol": -1e-6}),
        (solve_admm, {"tol": math.nan}),
        (solve_admm, {"max_iter": -3}),
        (solve_admm, {"max_iter": 2.5}),
        (solve_subgradient, {"step_scale": math.nan}),
        (solve_subgradient, {"step_scale": -1.0}),
        (solve_subgradient, {"step_scale": math.inf}),
        (solve_subgradient, {"max_iter": -3}),
    ],
)
def test_settings_outside_their_domain_raise(solve, settings):
    with pytest.raises(SolverSettingError):
        solve(bottleneck_preset(), **settings)
    assert issubclass(SolverSettingError, ValueError)


@pytest.mark.parametrize("budget", [-1.0e6, math.inf, math.nan])
def test_bad_budget_raises_when_the_solve_is_set_up(budget):
    # a member's budget is the only way a licensed cap enters, and it is
    # checked when the problem is made, so no solve is set up from it
    with pytest.raises(ValueError, match="member 1 has a (negative|non-finite) budget"):
        _single_link(budget=budget)


# -- the solver loops as first written, one trace row per iteration ----------


def _objective(s, u, a):
    return float((s.gain_u * u).sum() + (s.gain_a * a).sum()) * s.gain_scale


def _qos_shortfall(s, u, a):
    gap = (s.qos - (u + s.band_ratio * a)) * s.active
    return float(np.maximum(gap, 0.0).max(initial=0.0))


def _reference_z_projection(u_block, alpha_block, dual_u, dual_alpha, band_ratio, qos_bound):
    """``z_projection`` as first written, on separate licensed and
    airtime blocks."""
    p = np.asarray(u_block, dtype=float) + np.asarray(dual_u, dtype=float)
    q = np.asarray(alpha_block, dtype=float) + np.asarray(dual_alpha, dtype=float)
    bound = np.asarray(qos_bound, dtype=float)
    slack = np.maximum(bound - (p + band_ratio * q), 0.0)
    scale = slack / (1.0 + band_ratio * band_ratio)
    return p + scale, q + scale * band_ratio


def _reference_project_local(s, u, a):
    """``project_links`` through the checked public projections:
    an airtime share is at most 1, so the airtime rows take the plain
    simplex projection, clamped at 1 against roundoff."""
    pa = np.minimum(project_capped_simplex_eq(s.pad(a), s.xi, cap=math.inf), 1.0)
    return project_budget_box(s.pad(u), s.budget), pa


def _reference_repair(s, u, a, tol=REPAIR_TOL, max_rounds=REPAIR_MAX_ROUNDS):
    """The repaired ``(u, a)`` and the rounds after the first
    projection; a round that does not lower the shortfall is the last."""
    u, a = _reference_project_local(s, u, a)
    denom = 1.0 + s.band_ratio * s.band_ratio
    rounds, last = 0, math.inf
    while tol < _qos_shortfall(s, u, a) < last and rounds < max_rounds:
        last = _qos_shortfall(s, u, a)
        slack = np.maximum((s.qos - (u + s.band_ratio * a)) * s.active, 0.0)
        scale = slack / denom
        u, a = _reference_project_local(s, u + scale, a + scale * s.band_ratio)
        rounds += 1
    return u, a, rounds


def _reference_solution(s, trace, u, a, flags):
    """Repair as the solvers do: the trace records the rounds."""
    ru, ra, trace.repair_rounds = _reference_repair(s, u, a)
    return s.to_solution(ru, ra, trace.method, flags)


def _reference_solve_admm(problem, gamma=1.0, max_iter=2000, tol=1e-6):
    """``solve_admm`` as first written: fresh arrays for every update,
    ``np.linalg.norm`` residuals and each trace row built in the loop."""
    s = _Scaled(problem)
    trace = ConvergenceTrace(method="admm", gamma_final=gamma)
    n, m = problem.n_links, problem.n_services
    if s.dim == 0:
        trace.converged = True
        return s.to_solution(np.zeros((n, m)), np.zeros((n, m)), "admm"), trace

    xu = np.zeros((n, m))
    xa = np.where(s.active, s.xi[:, None] / np.maximum(s.offered, 1), 0.0)
    zu, za = xu.copy(), xa.copy()
    lu, la = np.zeros((n, m)), np.zeros((n, m))
    gain_u, gain_a = s.pad(s.gain_u), s.pad(s.gain_a)
    eps = tol * math.sqrt(s.dim)

    for it in range(1, max_iter + 1):
        # the airtime projection as _reference_project_local takes it
        xa = np.minimum(
            project_capped_simplex_eq(za - la + gain_a / gamma, s.xi, cap=math.inf), 1.0
        )
        xu = project_budget_box(zu - lu + gain_u / gamma, s.budget)
        zu_prev, za_prev = zu, za
        zu, za = _reference_z_projection(xu, xa, lu, la, s.band_ratio, s.qos)
        zu *= s.active
        za *= s.active
        lu = lu + xu - zu
        la = la + xa - za

        primal = math.hypot(
            float(np.linalg.norm(xu - zu)), float(np.linalg.norm(xa - za))
        )
        dual = gamma * math.hypot(
            float(np.linalg.norm(zu - zu_prev)), float(np.linalg.norm(za - za_prev))
        )
        trace.rows.append(TraceRow(it, _objective(s, zu, za), primal, dual))
        if primal <= eps and dual <= eps:
            trace.converged = True
            break
        if primal > 10.0 * dual and dual > 0:
            gamma *= 2.0
            lu /= 2.0
            la /= 2.0
        elif dual > 10.0 * primal and primal > 0:
            gamma /= 2.0
            lu *= 2.0
            la *= 2.0

    trace.gamma_final = gamma
    flags = () if trace.converged else ("max-iterations",)
    return _reference_solution(s, trace, zu.copy(), za.copy(), flags), trace


def _reference_solve_subgradient(problem, max_iter=500, step_scale=1.0):
    """``solve_subgradient`` as first written: fresh iterates, separate
    licensed and airtime averages and each trace row built in the loop."""
    s = _Scaled(problem)
    trace = ConvergenceTrace(method="subgradient")
    n, m = problem.n_links, problem.n_services
    if s.dim == 0:
        trace.converged = True
        return s.to_solution(np.zeros((n, m)), np.zeros((n, m)), "subgradient"), trace

    ranks = np.arange(m)
    fill = np.where(ranks < s.offered, np.clip(s.xi[:, None] - ranks, 0.0, 1.0), 0.0)
    neg_gain_a = -s.pad(s.gain_a)
    gain_u = np.where(s.active, s.gain_u, -np.inf)
    links = np.arange(n)
    lam = np.zeros((n, m))
    avg_u, avg_a = np.zeros((n, m)), np.zeros((n, m))
    for it in range(1, max_iter + 1):
        rank = np.argsort(neg_gain_a - lam * s.band_ratio, axis=1, kind="stable")
        xa = np.zeros((n, m))
        xa[links[:, None], rank] = fill
        coef_u = gain_u + lam
        best = np.argmax(coef_u, axis=1)
        xu = np.zeros((n, m))
        xu[links, best] = np.where(coef_u[links, best] > 0, s.budget, 0.0)
        avg_u += (xu - avg_u) / it
        avg_a += (xa - avg_a) / it

        slack = (xu + s.band_ratio * xa) - s.qos
        step = step_scale / math.sqrt(it)
        lam = np.maximum(0.0, lam - step * slack) * s.active

        trace.rows.append(
            TraceRow(
                it,
                _objective(s, avg_u, avg_a),
                _qos_shortfall(s, avg_u, avg_a),
                step * float(np.abs(slack).max()),
            )
        )

    trace.converged = True
    return _reference_solution(s, trace, avg_u.copy(), avg_a.copy(), ("ergodic-average",)), trace


def _bits(x):
    """Arrays, nested tuples and lists with every float as its exact hex
    form, so 0.0 and -0.0 differ."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, float):
        return float(x).hex()
    return x


def _assert_same_run(got, want):
    (solution, trace), (ref_solution, ref_trace) = got, want
    for field in ("u_hz", "alpha", "objective", "method", "flags"):
        assert _bits(getattr(solution, field)) == _bits(getattr(ref_solution, field)), field
    rows = [(r.iteration, r.objective, r.primal_residual, r.dual_residual) for r in trace.rows]
    ref_rows = [
        (r.iteration, r.objective, r.primal_residual, r.dual_residual) for r in ref_trace.rows
    ]
    assert _bits(rows) == _bits(ref_rows)
    assert (trace.method, trace.converged, trace.repair_rounds) == (
        ref_trace.method, ref_trace.converged, ref_trace.repair_rounds
    )
    assert _bits(trace.gamma_final) == _bits(ref_trace.gamma_final)


def _every_cell(rng):
    """One ``random_problem`` draw per (operators, links, services) cell,
    every variant feasible."""
    cells = {(o, n, k) for o in range(2, 5) for n in range(o, 11) for k in (2, 3)}
    drawn = {}
    while len(drawn) < len(cells):
        problem = random_problem(rng, feasible_for="all")
        drawn.setdefault((len(problem.members), problem.n_links, problem.n_services), problem)
    return [drawn[cell] for cell in sorted(cells)]


_CELLS = _every_cell(np.random.default_rng(31))


@pytest.mark.parametrize("variant", VARIANTS)
def test_solvers_match_their_first_form(variant):
    # the loops compute trace columns after each block of iterations and
    # update in place; every output must stay bit for bit the same
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base in _CELLS:
            problem = as_variant(base, variant)
            _assert_same_run(solve_admm(problem), _reference_solve_admm(problem))
            _assert_same_run(
                solve_subgradient(problem, max_iter=150),
                _reference_solve_subgradient(problem, max_iter=150),
            )


@pytest.mark.parametrize(
    "admm, subgrad, block_bytes",
    [
        ({"max_iter": 0}, {"max_iter": 0}, None),
        ({"max_iter": 25}, {"step_scale": 0.0}, None),
        ({"max_iter": 1}, {"max_iter": 1}, None),
        # blocks of a few iterations, some ending where the run does
        ({"max_iter": 300, "tol": 0.0}, {"max_iter": 301}, 1024),
        ({"max_iter": 96, "tol": 0.0}, {"max_iter": 96, "step_scale": 0.0}, 768),
        ({"gamma": 0.05, "tol": 1e-3}, {"max_iter": 700, "step_scale": 0.3}, None),
    ],
    ids=["no-iterations", "cut-short-and-frozen", "one-iteration", "small-blocks",
         "small-blocks-frozen", "settings"],
)
def test_solver_edges_match_their_first_form(monkeypatch, admm, subgrad, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(solvers, "TRACE_BLOCK_BYTES", block_bytes)
    for problem in _CELLS[::6] + [bottleneck_preset()]:
        _assert_same_run(solve_admm(problem, **admm), _reference_solve_admm(problem, **admm))
        _assert_same_run(
            solve_subgradient(problem, **subgrad),
            _reference_solve_subgradient(problem, **subgrad),
        )


def test_unpaid_slices_match_their_first_form():
    # a pair whose price is 0 has a licensed coefficient of exactly 0
    # until its multiplier grows: the baseline draws nothing there, and a
    # link with no paying slice, or none offered, draws nothing at all
    from dataclasses import replace

    for k, base in enumerate(_CELLS[::4]):
        price = base.price_per_bit.copy()
        price[k % base.n_links] = 0.0
        price[:, k % base.n_services] = 0.0
        problem = replace(base, price_per_bit=price)
        if k % 2:
            offered, access = base.offered.copy(), base.access.copy()
            offered[-1], access[-1] = False, 0.0
            problem = replace(problem, offered=offered, access=access)
        for settings in ({"max_iter": 60}, {"max_iter": 40, "step_scale": 0.0}):
            _assert_same_run(
                solve_subgradient(problem, **settings),
                _reference_solve_subgradient(problem, **settings),
            )
        _assert_same_run(solve_admm(problem), _reference_solve_admm(problem))


def test_solvers_refuse_exactly_the_infeasible_markets():
    # each link's LP has a closed form, so both solvers decide a market's
    # feasibility before their first iteration: on every seed-1 market
    # variant they refuse exactly where the oracle does, with its family
    # and message, and otherwise carry its optimum bit for bit.  No
    # iteration runs, so the repair starts from each solver's first
    # iterate and must still reach every floor
    rng = np.random.default_rng(1)
    refused = 0
    for _ in range(480):
        market = random_problem(rng, feasible_for="coalitions")
        for variant in VARIANTS:
            problem = as_variant(market, variant)
            try:
                want = solve_lp_oracle(problem)
            except InfeasibleProblem as exc:
                want = exc
            for solve in (solve_admm, solve_subgradient):
                if isinstance(want, InfeasibleProblem):
                    with pytest.raises(InfeasibleProblem) as got:
                        solve(problem, max_iter=0)
                    assert (got.value.family, got.value.message) == (want.family, want.message)
                    refused += 1
                    continue
                solution, trace = solve(problem, max_iter=0)
                assert trace.optimum.hex() == want.objective.hex()
                assert solution.max_violation() <= 1e-6
                assert trace.repair_rounds < REPAIR_MAX_ROUNDS
    # 474 of the 1440 variants are infeasible, each refused by both solvers
    assert refused == 2 * 474


def test_trace_memory_stays_within_a_block():
    # 2000 iterations on 600+ (link, slice) pairs: holding every iterate
    # for the trace would take 2000 x 2 x 600 x 8 B = 19 MB.  One block of
    # TRACE_BLOCK_BYTES keeps the peak at the 0.7-0.8 MB that the loops
    # building each row in the iteration reach
    rng = np.random.default_rng(5)
    problem = random_problem(rng, max_links=300)
    while problem.n_links * problem.n_services < 600:
        problem = random_problem(rng, max_links=300)
    for solve, settings in (
        (solve_subgradient, {"max_iter": 2000}),
        (solve_admm, {"max_iter": 2000, "tol": 0.0}),
    ):
        tracemalloc.start()
        try:
            _, trace = solve(problem, **settings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.rows) == 2000
        assert peak < 2e6, solve.__name__
