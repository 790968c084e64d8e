"""Coalition worths, stability verdicts, and division rules."""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from slicenet.game import (
    DIVISION_RULES,
    EPS_REL,
    ConvexityReport,
    NoOperatorsError,
    check_core,
    coalition_values,
    compute_worth,
    convexity_probe,
    default_division,
)
from slicenet.problem import (
    MAX_COALITION_MEMBERS,
    InfeasibleProblem,
    SlicingProblem,
    TooManyOperatorsError,
    as_variant,
    solution_from_arrays,
    solve_lp_oracle,
)
from slicenet.topology import bottleneck_preset, random_problem


def test_bottleneck_worth_pins():
    problem = bottleneck_preset()
    grand, one, two, nobody = coalition_values(problem, [{1, 2}, {1}, {2}, ()])
    assert math.isclose(grand, 300.0, rel_tol=1e-9)
    assert math.isclose(one, 110.0, rel_tol=1e-9)
    assert math.isclose(two, 110.0, rel_tol=1e-9)
    assert nobody == 0.0


def test_bottleneck_division_in_core():
    problem = bottleneck_preset()
    agreement = default_division(problem)
    worth = compute_worth(agreement)
    assert math.isclose(worth.total, 300.0, rel_tol=1e-9)
    # symmetric instance, symmetric split
    assert math.isclose(agreement.member_share(1), 150.0, rel_tol=1e-9)
    assert math.isclose(agreement.member_share(2), 150.0, rel_tol=1e-9)
    verdict = check_core(agreement)
    assert verdict.in_core
    assert "in core" in str(verdict)


def test_slice_worths_split_by_tariff():
    problem = bottleneck_preset()
    agreement = default_division(problem)
    worth = compute_worth(agreement)
    assert math.isclose(sum(worth.slice_worth), worth.total, rel_tol=1e-9)
    # the premium slice pays twice per bit and absorbs the pool
    assert worth.slice_worth[1] > worth.slice_worth[0]


def test_division_rules_cover_both_names():
    problem = bottleneck_preset()
    assert set(DIVISION_RULES) == {"egalitarian", "proportional"}
    egal = default_division(problem, rule="egalitarian")
    prop = default_division(problem, rule="proportional")
    # equal standalones make both rules coincide
    assert math.isclose(egal.member_share(1), prop.member_share(1), rel_tol=1e-9)
    with pytest.raises(ValueError):
        default_division(problem, rule="median")


def test_underpaid_member_fails_individual_rationality():
    problem = bottleneck_preset()
    agreement = default_division(problem)
    skewed = tuple(
        tuple(row[j] * (0.2 if j == 0 else 1.8) for j in range(len(row)))
        for row in agreement.x
    )
    # keep per-slice totals intact so the efficiency precondition holds
    scale = [
        sum(agreement.x[l]) / sum(skewed[l]) for l in range(len(skewed))
    ]
    skewed = tuple(
        tuple(v * scale[l] for v in row) for l, row in enumerate(skewed)
    )
    verdict = check_core(replace(agreement, x=skewed))
    assert not verdict.in_core
    assert verdict.failing_mno == 1
    assert "standalone" in verdict.reason


def test_inefficient_agreement_rejected():
    problem = bottleneck_preset()
    agreement = default_division(problem)
    broken = tuple(
        tuple(v * 0.5 for v in row) for row in agreement.x
    )
    with pytest.raises(ValueError, match="splits"):
        check_core(replace(agreement, x=broken))


def test_infeasible_allocation_has_no_worth():
    problem = bottleneck_preset()
    agreement = default_division(problem)
    zero = np.zeros(problem.offered.shape)
    zeroed = replace(agreement, solution=solution_from_arrays(problem, zero, zero, "zero"))
    with pytest.raises(ValueError, match="infeasible"):
        compute_worth(zeroed)


def test_standalone_of_stranger_rejected():
    with pytest.raises(ValueError, match="not among members"):
        coalition_values(bottleneck_preset(), [{7}])


def test_convexity_probe_bottleneck():
    report = convexity_probe(bottleneck_preset())
    assert isinstance(report, ConvexityReport)
    assert report.ok
    # one pair, {1} and {2}, over the empty coalition
    assert report.checked == 1
    assert report.violations == ()


def _triple_violations(problem):
    """The convexity test the pairwise probe replaced, as a reference.

    For every triple (C, N, O) with N a proper subset of O and both
    disjoint from C, the value C adds to O must be at least the value it
    adds to N, within ``EPS_REL`` of the grand coalition's value.
    Returns the violating triples as (C, N, O) member sets.
    """
    members = problem.members
    coalitions = [
        frozenset(c) for size in range(len(members) + 1) for c in combinations(members, size)
    ]
    value = dict(zip(coalitions, coalition_values(problem, coalitions)))
    eps = EPS_REL * max(1.0, abs(value[frozenset(members)]))
    violations = set()
    for c in coalitions[1:]:
        for o in coalitions[1:]:
            if c & o:
                continue
            for n in coalitions:
                if n < o and value[c | o] - value[o] < value[c | n] - value[n] - eps:
                    violations.add((c, n, o))
    return violations


def _probe_markets():
    """Gate 7's 50 seed-7 markets, then the first 24 seed-1 markets
    under each single-band and the joint variant."""
    rng = np.random.default_rng(7)
    yield from (random_problem(rng, feasible_for="coalitions") for _ in range(50))
    rng = np.random.default_rng(1)
    for _ in range(24):
        base = random_problem(rng, feasible_for="coalitions")
        yield from (as_variant(base, variant) for variant in ("s1", "s2", "s3"))


def test_pairwise_probe_agrees_with_the_triple_check():
    convex = 0
    for problem in _probe_markets():
        report = convexity_probe(problem)
        reference = _triple_violations(problem)
        assert report.ok == (not reference)
        for v in report.violations:
            assert (v.joining, v.smaller, v.larger) in reference
        convex += report.ok
    # all 50 of gate 7's markets, and 55 of the 72 seed-1 market variants
    assert convex == 50 + 55


def test_convexity_probe_reports_a_violation():
    rng = np.random.default_rng(1)
    for _ in range(4):
        base = random_problem(rng, feasible_for="coalitions")
    # market 3 on the unlicensed band only: operator 2 alone earns 42.5,
    # while operator 1 alone and the pair miss their floors and are worth 0
    report = convexity_probe(as_variant(base, "s1"))
    assert base.members == (1, 2)
    assert report.checked == 1
    (v,) = report.violations
    assert (v.joining, v.smaller, v.larger) == ({1}, set(), {2})
    assert v.lhs < v.rhs


def test_random_instances_superadditive_and_stable():
    rng = np.random.default_rng(31)
    for _ in range(5):
        problem = random_problem(rng, feasible_for="coalitions")
        members = problem.members
        grand, *solo = coalition_values(problem, [members, *({i} for i in members)])
        assert grand >= sum(solo) - 1e-6 * max(grand, 1.0)
        agreement = default_division(problem)
        assert check_core(agreement).in_core
        assert convexity_probe(problem).ok


def test_agreement_matches_grand_coalition_solution():
    problem = bottleneck_preset()
    agreement = default_division(problem)
    oracle = solve_lp_oracle(problem)
    sol = agreement.solution
    assert math.isclose(sol.objective, oracle.objective, rel_tol=1e-9)
    assert math.isclose(agreement.total_allocated(), oracle.objective, rel_tol=1e-9)


@pytest.mark.parametrize("rule", DIVISION_RULES)
def test_agreement_carries_the_values_it_splits(rule):
    rng = np.random.default_rng(13)
    # under the default s3 margin some standalone values are infeasible zeros
    problems = [bottleneck_preset()] + [random_problem(rng) for _ in range(6)]
    zeros = 0
    for problem in problems:
        agreement = default_division(problem, rule=rule)
        singletons = [{i} for i in problem.members]
        assert agreement.optimum == solve_lp_oracle(problem).objective
        assert len(agreement.values) == 2 ** len(problem.members)
        # the table's grand entry is the oracle's optimum, bit for bit
        assert agreement.values[-1] == agreement.optimum
        assert agreement.standalone == tuple(coalition_values(problem, singletons))
        zeros += agreement.standalone.count(0.0)
    assert zeros > 0


@pytest.fixture()
def lp_calls(monkeypatch):
    """Record each pass the allocation layer makes over links: one per
    oracle solve and one per batch of coalitions."""
    import slicenet.problem

    calls = []
    fill = slicenet.problem._fill

    def counted(*args):
        calls.append(args)
        return fill(*args)

    monkeypatch.setattr(slicenet.problem, "_fill", counted)
    return calls


def test_division_worth_and_core_share_their_lps(lp_calls):
    rng = np.random.default_rng(5)
    for _ in range(4):
        problem = random_problem(rng, feasible_for="coalitions")
        lp_calls.clear()
        agreement = default_division(problem)
        worth = compute_worth(agreement)
        verdict = check_core(agreement)
        # every coalition in one pass, kept on the problem, then the
        # grand coalition's oracle
        assert len(lp_calls) == 2
        lp_calls.clear()
        # the probe and any further division of the market read that table
        assert convexity_probe(problem).ok
        assert lp_calls == []
        again = default_division(problem)
        assert len(lp_calls) == 1
        # a copy of the market, with no table yet, splits the same way
        fresh = default_division(replace(problem))
        assert len(lp_calls) == 3
        for other in (again, fresh):
            assert other.values == agreement.values
            assert compute_worth(other) == worth
            assert check_core(other) == verdict


def test_worth_and_core_read_the_agreement_without_solving(lp_calls):
    problem = bottleneck_preset()
    agreement = default_division(problem)
    lp_calls.clear()
    # a copy keeps the values it was split from
    skewed = tuple((row[0] * 0.5, row[1] + row[0] * 0.5) for row in agreement.x)
    copy = replace(agreement, x=skewed)
    assert (copy.optimum, copy.values) == (agreement.optimum, agreement.values)
    assert check_core(copy).failing_mno == 1
    assert check_core(agreement).in_core
    compute_worth(copy)
    assert lp_calls == []


def test_stacked_values_match_the_oracle_one_by_one():
    rng = np.random.default_rng(17)
    infeasible = 0
    for _ in range(40):
        # under the default s3 margin, lone operators often miss their floors
        problem = random_problem(rng)
        members = problem.members
        coalitions = [
            frozenset(c) for size in range(1, len(members) + 1) for c in combinations(members, size)
        ]
        for coalition, value in zip(coalitions, coalition_values(problem, coalitions)):
            try:
                alone = solve_lp_oracle(problem.restrict(coalition)).objective
            except InfeasibleProblem:
                alone = 0.0
                infeasible += 1
            assert value == alone, (coalition, value, alone)
    assert infeasible > 0


def test_game_never_diagnoses_infeasibility(monkeypatch):
    import slicenet.problem

    def refuse(problem):
        raise AssertionError("the game layer asked why a coalition is infeasible")

    monkeypatch.setattr(slicenet.problem, "_blame_family", refuse)
    rng = np.random.default_rng(23)
    worthless = 0
    for _ in range(10):
        problem = random_problem(rng)
        agreement = default_division(problem)
        compute_worth(agreement)
        check_core(agreement)
        convexity_probe(problem)
        worthless += agreement.standalone.count(0.0)
    assert worthless > 0


def test_all_coalitions_in_one_pass(lp_calls, monkeypatch):
    rng = np.random.default_rng(2)
    problem = random_problem(rng, feasible_for="coalitions")
    while len(problem.members) != 4:
        problem = random_problem(rng, feasible_for="coalitions")
    restrict = SlicingProblem.restrict
    restricted = []
    monkeypatch.setattr(
        SlicingProblem, "restrict", lambda self, c: restricted.append(c) or restrict(self, c)
    )
    members = problem.members
    coalitions = [c for r in range(1, 5) for c in combinations(members, r)]
    # unlicensed only, some coalitions miss their floors
    for market in (problem, as_variant(problem, "s1")):
        lp_calls.clear()
        values = coalition_values(market, coalitions)
        assert len(values) == 15 and len(lp_calls) == 1
        # no restricted problem is built, and a value does not depend on
        # what else is asked beside it
        assert restricted == []
        alone = [coalition_values(market, [c])[0] for c in coalitions]
        assert [v.hex() for v in alone] == [v.hex() for v in values]
    assert min(coalition_values(problem, coalitions)) > 0.0
    assert 0.0 in alone


def test_a_market_with_no_operators_is_refused_unsolved(lp_calls):
    # what build_problem makes of a Wi-Fi-only deployment: no operators,
    # no links, and a welfare of 0
    empty = SlicingProblem(
        link_ids=(), link_owner=(), service_ids=(1,), members=(), mno_budget_hz=(),
        rate_bps_hz=(), access=(), offered=np.zeros((0, 1), bool),
        min_rate_bps=np.zeros((0, 1)), price_per_bit=np.zeros((0, 1)), unlicensed_hz=2e7,
        ssg=(frozenset(),),
    )
    assert solve_lp_oracle(empty).objective == 0.0
    lp_calls.clear()
    for step in (
        lambda: default_division(empty),
        lambda: convexity_probe(empty),
        lambda: coalition_values(empty, []),
    ):
        with pytest.raises(NoOperatorsError, match="no operators"):
            step()
    assert lp_calls == []
    assert issubclass(NoOperatorsError, ValueError)


def _pooled_market(size):
    """``size`` operators with a link each, all pooling one slice."""
    members = tuple(range(1, size + 1))
    return SlicingProblem(
        link_ids=tuple(f"l{i}" for i in members),
        link_owner=members,
        service_ids=(1,),
        members=members,
        mno_budget_hz=np.full(size, 1e6),
        rate_bps_hz=np.ones(size),
        access=np.full(size, 0.5),
        offered=np.ones((size, 1), dtype=bool),
        min_rate_bps=np.zeros((size, 1)),
        price_per_bit=np.full((size, 1), 1e-6),
        unlicensed_hz=2e7,
        ssg=(frozenset(members),),
    )


def test_a_market_past_the_table_bound_is_refused_unsolved(lp_calls):
    assert MAX_COALITION_MEMBERS == 8
    large = _pooled_market(9)
    for step in (
        lambda: coalition_values(large, [{1}]),
        lambda: default_division(large),
        lambda: convexity_probe(large),
    ):
        with pytest.raises(TooManyOperatorsError, match="at most 8 operators"):
            step()
    assert lp_calls == []
    assert issubclass(TooManyOperatorsError, ValueError)
    # at the bound every step is served from one pass over the market's
    # table of 255 coalitions
    market = _pooled_market(8)
    agreement = default_division(market)
    assert len(agreement.values) == 256 and len(lp_calls) == 2
    assert check_core(agreement).in_core
    report = convexity_probe(market)
    assert report.ok and report.checked == 28 * 2**6
    assert len(lp_calls) == 2
