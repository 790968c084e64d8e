"""Distributed solver and baseline: agreement with the exact optimum,
convergence accounting, and the privacy boundary of per-link updates."""

import inspect
import math

import numpy as np

from slicenet.problem import solve_lp_oracle
from slicenet.solvers import (
    alpha_subproblem,
    dual_update,
    solve_admm,
    solve_subgradient,
    w_subproblem,
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
    # the per-link solves must stay expressible in link-local data:
    # consensus blocks, the penalty, and that link's own parameters
    for fn, params in (
        (alpha_subproblem, {"z_block", "dual_block", "gamma", "xi_budget", "gains"}),
        (w_subproblem, {"z_block", "dual_block", "gamma", "budget", "gains"}),
    ):
        assert set(inspect.signature(fn).parameters) == params


def test_alpha_subproblem_is_projection():
    out = alpha_subproblem(
        np.array([1.5, 0.1]), np.zeros(2), 1.0, 1.0, np.zeros(2)
    )
    assert np.allclose(out, [1.0, 0.0])
    assert math.isclose(out.sum(), 1.0, abs_tol=1e-12)


def test_w_subproblem_respects_budget():
    out = w_subproblem(np.array([3.0, 2.0]), np.zeros(2), 1.0, 4.0, np.zeros(2))
    assert out.sum() <= 4.0 + 1e-9
    assert np.all(out >= 0.0)


def test_subproblems_accept_stacked_blocks():
    # one batched call over stacked links equals one call per link on
    # its offered slices; NaN gains mark the slices a link does not offer
    rng = np.random.default_rng(24)
    z, lam = rng.uniform(-0.5, 1.5, (5, 3)), rng.uniform(-0.5, 0.5, (5, 3))
    gains = rng.uniform(0.0, 2.0, (5, 3))
    offered = np.array([[1, 1, 1], [1, 0, 1], [0, 0, 1], [0, 1, 0], [1, 1, 0]], bool)
    padded = np.where(offered, gains, np.nan)
    xi, budget = rng.uniform(0.0, 1.0, 5), rng.uniform(0.1, 1.0, 5)
    for fn, totals in ((alpha_subproblem, xi), (w_subproblem, budget)):
        stacked = fn(z, lam, 0.7, totals, padded)
        assert np.all(stacked[~offered] == 0.0)
        for k, row in enumerate(offered):
            one = fn(z[k, row], lam[k, row], 0.7, totals[k], gains[k, row])
            assert np.array_equal(stacked[k, row], one)


def test_z_projection_enforces_qos_bound():
    u, a = z_projection(
        np.array([0.0]), np.array([0.0]), np.zeros(1), np.zeros(1), 1.0,
        np.array([1.0]),
    )
    assert np.allclose(u, [0.5]) and np.allclose(a, [0.5])


def test_dual_update_accumulates_disagreement():
    d = dual_update(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 0.5]))
    assert np.allclose(d, [1.0, -0.5])


def test_link_offering_no_slice_stays_zero():
    from dataclasses import replace

    base = bottleneck_preset()
    problem = replace(
        base,
        link_ids=base.link_ids + ("m1b2u1",),
        link_owner=base.link_owner + (1,),
        rate_bps_hz=base.rate_bps_hz + (4.0,),
        access=base.access + (0.0,),
        budget_hz=base.budget_hz + (1.0e7,),
        offered=base.offered + ((False, False),),
        min_rate_bps=base.min_rate_bps + ((0.0, 0.0),),
        price_per_bit=base.price_per_bit + ((1.0e-6, 2.0e-6),),
    )
    oracle = solve_lp_oracle(problem)
    admm, trace = solve_admm(problem)
    sub, _ = solve_subgradient(problem, max_iter=200)
    assert trace.converged
    assert abs(admm.objective - oracle.objective) <= 1e-4 * abs(oracle.objective)
    for solution in (admm, sub):
        assert solution.u_hz[2] == (0.0, 0.0) and solution.alpha[2] == (0.0, 0.0)
        assert solution.max_violation() <= 1e-6
