"""Coalition worths, stability verdicts, and division rules."""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import milp

from slicenet.game import (
    DIVISION_RULES,
    ConvexityReport,
    check_core,
    coalition_values,
    compute_worth,
    convexity_probe,
    default_division,
)
from slicenet.problem import InfeasibleProblem, solve_lp_oracle
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
    zeroed = replace(
        agreement,
        u_hz=tuple(tuple(0.0 for _ in row) for row in agreement.u_hz),
        alpha=tuple(tuple(0.0 for _ in row) for row in agreement.alpha),
    )
    with pytest.raises(ValueError, match="infeasible"):
        compute_worth(zeroed)


def test_standalone_of_stranger_rejected():
    with pytest.raises(ValueError, match="not among members"):
        coalition_values(bottleneck_preset(), [{7}])


def test_convexity_probe_bottleneck():
    report = convexity_probe(bottleneck_preset())
    assert isinstance(report, ConvexityReport)
    assert report.ok
    assert report.checked == 2
    assert report.violations == ()


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
    sol = agreement.as_solution()
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
        assert agreement.standalone == tuple(coalition_values(problem, singletons))
        zeros += agreement.standalone.count(0.0)
    assert zeros > 0


@pytest.fixture()
def lp_calls(monkeypatch):
    """Record each HiGHS call the allocation layer makes."""
    import slicenet.problem

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return milp(*args, **kwargs)

    monkeypatch.setattr(slicenet.problem, "milp", counted)
    return calls


def test_division_worth_and_core_share_their_lps(lp_calls):
    rng = np.random.default_rng(5)
    for _ in range(4):
        problem = random_problem(rng, feasible_for="coalitions")
        lp_calls.clear()
        fresh = {
            "worth": compute_worth(default_division(problem)),
            "core": check_core(default_division(problem)),
        }
        lp_calls.clear()
        agreement = default_division(problem)
        worth = compute_worth(agreement)
        verdict = check_core(agreement)
        # the grand coalition alone, then every standalone LP in one stack
        assert len(lp_calls) == 2
        assert worth == fresh["worth"]
        assert verdict == fresh["core"]
        lp_calls.clear()
        assert convexity_probe(problem).ok
        assert len(lp_calls) == 1


def test_worth_and_core_read_the_agreement_without_solving(lp_calls):
    problem = bottleneck_preset()
    agreement = default_division(problem)
    lp_calls.clear()
    # a copy keeps the values it was split from
    skewed = tuple((row[0] * 0.5, row[1] + row[0] * 0.5) for row in agreement.x)
    copy = replace(agreement, x=skewed)
    assert (copy.optimum, copy.standalone) == (agreement.optimum, agreement.standalone)
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
            assert math.isclose(value, alone, rel_tol=1e-12), (coalition, value, alone)
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
