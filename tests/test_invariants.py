"""Invariants of the allocation LP and its coalition game that a diff
against an older checkout cannot see: a fault both checkouts share
passes every byte-diff, but not a property the market must keep under a
change that cannot move its value.  Each is checked on every variant of
the 480 markets ``random_problem(default_rng(1),
feasible_for="coalitions")`` draws."""

import math
from dataclasses import replace

import numpy as np
import pytest

from slicenet.game import default_division
from slicenet.problem import VARIANTS, InfeasibleProblem, as_variant, solve_lp_oracle
from slicenet.solvers import solve_admm
from slicenet.topology import random_problem

#: the largest relative move a reordering of the market may cause: the
#: sums run in another order, so values may move by roundoff
REORDER_REL = 1e-15


def _optimum(problem):
    """The oracle's optimal welfare, or ``None`` for an infeasible market."""
    try:
        return solve_lp_oracle(problem).objective
    except InfeasibleProblem:
        return None


@pytest.fixture(scope="module")
def variants():
    rng = np.random.default_rng(1)
    markets = [random_problem(rng, feasible_for="coalitions") for _ in range(480)]
    return [as_variant(market, variant) for market in markets for variant in VARIANTS]


@pytest.fixture(scope="module")
def optima(variants):
    values = [_optimum(p) for p in variants]
    # the draw holds both kinds of market: 474 of the 1440 are infeasible
    assert values.count(None) == 474
    return values


def test_the_grand_coalition_is_the_market(variants, optima):
    # restricting a market to all its members changes nothing: its value
    # is the market's own, as is the coalition table's last entry
    for problem, value in zip(variants, optima):
        assert _optimum(problem.restrict(problem.members)) == value
        assert problem.coalition_table[-1] == value


def test_doubling_every_tariff_doubles_the_optimum(variants, optima):
    # a tariff scales the revenue of its pair and leaves the slices'
    # ranking as it is, and doubling is exact in binary
    for problem, value in zip(variants, optima):
        doubled = _optimum(replace(problem, price_per_bit=2.0 * problem.price_per_bit))
        assert doubled == (None if value is None else 2.0 * value)


def _reversed_links(problem):
    """The same market with its links in reverse order."""
    return replace(
        problem,
        link_ids=problem.link_ids[::-1],
        link_owner=problem.link_owner[::-1],
        rate_bps_hz=problem.rate_bps_hz[::-1],
        access=problem.access[::-1],
        offered=problem.offered[::-1],
        min_rate_bps=problem.min_rate_bps[::-1],
        price_per_bit=problem.price_per_bit[::-1],
    )


def _reversed_services(problem):
    """The same market with its services, and their sharing groups, in
    reverse order."""
    return replace(
        problem,
        service_ids=problem.service_ids[::-1],
        ssg=problem.ssg[::-1],
        offered=problem.offered[:, ::-1],
        min_rate_bps=problem.min_rate_bps[:, ::-1],
        price_per_bit=problem.price_per_bit[:, ::-1],
    )


def _reversed_members(problem):
    """The same market with its operators, and so the bits of its
    coalition masks, in reverse order."""
    return replace(
        problem, members=problem.members[::-1], mno_budget_hz=problem.mno_budget_hz[::-1]
    )


def _mirrored(mask, m):
    """``mask`` over ``m`` members with bit ``j`` moved to bit ``m - 1 - j``."""
    return sum(1 << m - 1 - j for j in range(m) if mask >> j & 1)


def _worst_move(before, after):
    """The largest relative move from ``before`` to ``after``, value by
    value, where a zero that moves at all moves infinitely far; fails
    where one side is infeasible and the other is not."""
    worst = 0.0
    for value, got in zip(before, after, strict=True):
        assert (got is None) == (value is None)
        if got != value:
            worst = max(worst, abs(got - value) / abs(value) if value else math.inf)
    return worst


def test_the_link_order_does_not_move_the_optimum(variants, optima):
    # no feasibility verdict may change
    assert _worst_move(optima, [_optimum(_reversed_links(p)) for p in variants]) <= REORDER_REL


def test_the_service_order_does_not_move_the_optimum(variants, optima):
    assert _worst_move(optima, [_optimum(_reversed_services(p)) for p in variants]) <= REORDER_REL


def test_reversing_the_links_does_not_move_the_coalition_table(variants):
    # link order is not part of a coalition's bitmask, so every entry of
    # the table stays in place
    worst = 0.0
    for problem in variants:
        reversed_ = _reversed_links(problem)
        worst = max(worst, _worst_move(problem.coalition_table, reversed_.coalition_table))
    assert worst <= REORDER_REL


def test_doubling_every_tariff_leaves_admm_iterates_alone(variants, optima):
    # the solver divides the gains by their largest entry, so doubled
    # tariffs give the same normalized iterates, bit for bit: the same
    # iterations, residuals, penalty and allocation, with the revenue
    # column doubled; an eighth of the feasible variants keeps this quick
    feasible = [p for p, value in zip(variants, optima) if value is not None]
    for problem in feasible[::8]:
        solution, trace = solve_admm(problem)
        doubled = replace(problem, price_per_bit=2.0 * problem.price_per_bit)
        solution2, trace2 = solve_admm(doubled)
        assert (trace2.converged, trace2.gamma_final) == (trace.converged, trace.gamma_final)
        assert [(r.iteration, r.primal_residual, r.dual_residual) for r in trace2.rows] == [
            (r.iteration, r.primal_residual, r.dual_residual) for r in trace.rows
        ]
        assert [r.objective for r in trace2.rows] == [2.0 * r.objective for r in trace.rows]
        assert solution2.u_hz.tobytes() == solution.u_hz.tobytes()
        assert solution2.alpha.tobytes() == solution.alpha.tobytes()
        assert solution2.objective == 2.0 * solution.objective


def test_reversing_the_members_permutes_the_table_and_the_payoffs(variants, optima):
    # a coalition's mask marks members by position, so reversing them
    # mirrors every mask; the Shapley payoff of each operator stays
    worst = 0.0
    for problem, value in zip(variants, optima):
        reversed_ = _reversed_members(problem)
        m = len(problem.members)
        table = reversed_.coalition_table
        mirrored = [table[_mirrored(mask, m)] for mask in range(len(table))]
        worst = max(worst, _worst_move(problem.coalition_table, mirrored))
        if value is not None:
            before, after = default_division(problem), default_division(reversed_)
            worst = max(worst, _worst_move(
                [before.member_share(i) for i in problem.members],
                [after.member_share(i) for i in problem.members],
            ))
    assert worst <= REORDER_REL
