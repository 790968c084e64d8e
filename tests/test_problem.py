"""Allocation problem model and the centralized reference solver."""

import math

import numpy as np
import pytest

from slicenet.mboe import AccessEstimate
from slicenet.problem import (
    FAMILY_ACCESS,
    FAMILY_BUDGET,
    FAMILY_QOS,
    InfeasibleProblem,
    SlicingProblem,
    as_variant,
    build_problem,
    solution_from_arrays,
    solve_lp_oracle,
)
from slicenet.scenario import BandPlan, Link, Mno, Node, Scenario, ServiceType
from slicenet.topology import bottleneck_preset


def _single_link(min_rate=1e7, access=1.0, budget=2e7, rate=2.0):
    return SlicingProblem(
        link_ids=("l1",),
        link_owner=(1,),
        service_ids=(1,),
        members=(1,),
        mno_budget_hz=(budget,),
        rate_bps_hz=(rate,),
        access=(access,),
        budget_hz=(budget,),
        offered=((True,),),
        min_rate_bps=((min_rate,),),
        price_per_bit=((1e-6,),),
        unlicensed_hz=2e7,
        ssg=(frozenset({1}),),
    )


def test_single_link_optimum():
    sol = solve_lp_oracle(_single_link())
    # all licensed spectrum plus the whole airtime entitlement
    assert math.isclose(sol.objective, 80.0, rel_tol=1e-9)
    assert math.isclose(sol.u_hz[0][0], 2e7, rel_tol=1e-9)
    assert math.isclose(sol.alpha[0][0], 1.0, rel_tol=1e-9)
    assert sol.max_violation() <= 1e-9


def test_unreachable_floor_blames_qos():
    with pytest.raises(InfeasibleProblem) as err:
        solve_lp_oracle(_single_link(min_rate=1e9))
    assert err.value.family == FAMILY_QOS


def test_restricted_pool_blames_budget():
    # operator 2 holds spare spectrum but only operator 1 pools for the
    # link's slice; opening the pool would make the floor reachable
    problem = SlicingProblem(
        link_ids=("l1",),
        link_owner=(1,),
        service_ids=(1,),
        members=(1, 2),
        mno_budget_hz=(1e7, 3e7),
        rate_bps_hz=(1.0,),
        access=(0.5,),
        budget_hz=(1e7,),
        offered=((True,),),
        min_rate_bps=((3.5e7,),),
        price_per_bit=((1e-6,),),
        unlicensed_hz=2e7,
        ssg=(frozenset({1}),),
    )
    with pytest.raises(InfeasibleProblem) as err:
        solve_lp_oracle(problem)
    assert err.value.family == FAMILY_BUDGET


def test_contention_squeeze_blames_access():
    # the whole market's spectrum cannot reach the floor, the full
    # channel could; contention is the scarcity
    problem = _single_link(min_rate=2.0e7, access=0.2, budget=5e6, rate=1.0)
    with pytest.raises(InfeasibleProblem) as err:
        solve_lp_oracle(problem)
    assert err.value.family == FAMILY_ACCESS


def test_blame_ignores_links_that_offer_nothing():
    # l2's owner shares no slice; opening the channel must not hand it
    # airtime it cannot use
    problem = SlicingProblem(
        link_ids=("l1", "l2"),
        link_owner=(1, 2),
        service_ids=(1,),
        members=(1, 2),
        mno_budget_hz=(5e6, 5e6),
        rate_bps_hz=(1.0, 1.0),
        access=(0.2, 0.0),
        budget_hz=(5e6, 0.0),
        offered=((True,), (False,)),
        min_rate_bps=((2.0e7,), (0.0,)),
        price_per_bit=((1e-6,), (1e-6,)),
        unlicensed_hz=2e7,
        ssg=(frozenset({1}),),
    )
    with pytest.raises(InfeasibleProblem) as err:
        solve_lp_oracle(problem)
    assert err.value.family == FAMILY_ACCESS


def _market(services=(), ssg=None, prices=None) -> Scenario:
    """Three operators with one link each; ``prices`` are operator 2's
    own."""
    owners = (1, 2, 3)
    return Scenario(
        services=services,
        mnos=(
            Mno(id=1, licensed_bandwidth_hz=1e7),
            Mno(id=2, licensed_bandwidth_hz=2e7, price_overrides_per_bit=prices or {}),
            Mno(id=3, licensed_bandwidth_hz=4e7),
        ),
        nodes=tuple(
            Node(id=f"b{i}", kind="laa", position_m=(500.0 * i, 0.0), owner=i) for i in owners
        ),
        links=tuple(
            Link(id=f"l{i}", owner=i, node=f"b{i}", ue_position_m=(500.0 * i, 10.0))
            for i in owners
        ),
        band=BandPlan(unlicensed_bandwidth_hz=2e7, ssg=ssg or {}),
    )


ESTIMATE = AccessEstimate(
    access={"l1": 0.5, "l2": 1.02, "l3": 0.3},
    provenance=dict.fromkeys(("l1", "l2", "l3"), "table"),
)


def test_build_problem_pools_each_links_sharing_groups():
    # operators 1 and 2 pool service 1, only operator 1 pools service
    # 2, and operator 3's link sits outside every group
    scenario = _market(
        services=(ServiceType(1, 1e6, 1e-6), ServiceType(2, 2e6, 2e-6)),
        ssg={1: frozenset({1, 2}), 2: frozenset({1})},
        prices={1: 5e-6},
    )
    problem = build_problem(scenario, ESTIMATE)
    assert problem.members == (1, 2, 3)
    assert problem.mno_budget_hz == (1e7, 2e7, 4e7)
    assert problem.offered == ((True, True), (True, False), (False, False))
    assert problem.budget_hz == (3e7, 3e7, 0.0)
    assert problem.access == (0.5, 1.0, 0.0)  # 1.02 is clamped
    assert problem.min_rate_bps == ((1e6, 2e6),) * 3
    assert problem.price_per_bit == ((1e-6, 2e-6), (5e-6, 2e-6), (1e-6, 2e-6))
    for variant in ("s1", "s2"):
        assert build_problem(scenario, ESTIMATE, variant) == as_variant(problem, variant)


def test_build_problem_without_services():
    problem = build_problem(_market(), ESTIMATE)
    assert problem.offered == ((), (), ())
    assert problem.access == (0.0, 0.0, 0.0)
    assert problem.budget_hz == (0.0, 0.0, 0.0)
    solution = solve_lp_oracle(problem)
    assert solution.objective == 0.0
    assert solution.max_violation() == 0.0
    # Wi-Fi only: no operators, no links, nothing to pool
    wifi = Scenario(
        services=(), mnos=(), nodes=(Node(id="w", kind="wifi", position_m=(0.0, 0.0)),),
        links=(), band=BandPlan(unlicensed_bandwidth_hz=2e7),
    )
    assert build_problem(wifi, ESTIMATE).members == ()


def test_variant_rewrites():
    base = bottleneck_preset()
    s1 = as_variant(base, "s1")
    assert set(s1.budget_hz) == {0.0}
    assert s1.access == base.access
    s2 = as_variant(base, "s2")
    assert set(s2.access) == {0.0}
    assert s2.budget_hz == base.budget_hz
    assert as_variant(base, "s3") == base
    with pytest.raises(ValueError):
        as_variant(base, "s9")


def test_bottleneck_variants_pin():
    base = bottleneck_preset()
    v3 = solve_lp_oracle(base).objective
    v1 = solve_lp_oracle(as_variant(base, "s1")).objective
    v2 = solve_lp_oracle(as_variant(base, "s2")).objective
    assert math.isclose(v3, 300.0, rel_tol=1e-9)
    assert math.isclose(v1, 140.0, rel_tol=1e-9)
    assert math.isclose(v2, 140.0, rel_tol=1e-9)


def test_restrict_drops_foreign_links_and_pools_donors():
    base = bottleneck_preset()
    solo = base.restrict(frozenset({1}))
    assert solo.members == (1,)
    assert all(owner == 1 for owner in solo.link_owner)
    # alone, a link's pool is only its own operator's band
    assert all(b == base.mno_budget_hz[0] for b in solo.budget_hz)
    assert all(1 in group for group in solo.ssg)


def test_restrict_to_nonmember_rejected():
    base = bottleneck_preset()
    with pytest.raises(ValueError):
        base.restrict(frozenset({99}))
    with pytest.raises(ValueError):
        base.restrict(frozenset())


def test_solution_arrays_recompute_objective():
    problem = _single_link()
    sol = solution_from_arrays(
        problem,
        np.array([[1e7]]),
        np.array([[1.0]]),
        method="manual",
        flags=(),
    )
    # revenue = price * spectral efficiency * (licensed + airtime * band)
    expected = 1e-6 * 2.0 * (1e7 + 1.0 * 2e7)
    assert math.isclose(sol.objective, expected)
    assert sol.max_violation() <= 1e-9


def test_violation_reports_shortfall():
    problem = _single_link(min_rate=1e7)
    sol = solution_from_arrays(
        problem, np.array([[0.0]]), np.array([[0.0]]), method="manual", flags=()
    )
    assert sol.max_violation() > 0.5


def test_offered_mask_must_cover_airtime_holders():
    with pytest.raises(ValueError, match="offers no slice"):
        SlicingProblem(
            link_ids=("l1",),
            link_owner=(1,),
            service_ids=(1,),
            members=(1,),
            mno_budget_hz=(1e7,),
            rate_bps_hz=(2.0,),
            access=(0.5,),
            budget_hz=(1e7,),
            offered=((False,),),
            min_rate_bps=((0.0,),),
            price_per_bit=((1e-6,),),
            unlicensed_hz=2e7,
            ssg=(frozenset({1}),),
        )


def test_access_share_bounds_checked():
    with pytest.raises(ValueError):
        _single_link(access=1.4)
    with pytest.raises(ValueError):
        _single_link(access=-0.2)
