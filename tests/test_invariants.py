"""Invariants of the allocation LP that a diff against an older checkout
cannot see: a fault both checkouts share passes every byte-diff, but not
a property the market must keep under a change that cannot move its
value.  Each is checked on every variant of the 480 markets
``random_problem(default_rng(1), feasible_for="coalitions")`` draws."""

from dataclasses import replace

import numpy as np
import pytest

from slicenet.problem import VARIANTS, InfeasibleProblem, as_variant, solve_lp_oracle
from slicenet.topology import random_problem


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


def test_the_link_order_does_not_move_the_optimum(variants, optima):
    # the same links in reverse order: the sums run in another order, so
    # the optimum may move by roundoff, and no feasibility verdict may
    # change
    worst = 0.0
    for problem, value in zip(variants, optima):
        reversed_ = replace(
            problem,
            link_ids=problem.link_ids[::-1],
            link_owner=problem.link_owner[::-1],
            rate_bps_hz=problem.rate_bps_hz[::-1],
            access=problem.access[::-1],
            offered=problem.offered[::-1],
            min_rate_bps=problem.min_rate_bps[::-1],
            price_per_bit=problem.price_per_bit[::-1],
        )
        got = _optimum(reversed_)
        assert (got is None) == (value is None)
        if value is not None:
            worst = max(worst, abs(got - value) / abs(value))
    assert worst <= 1e-15
