"""Allocation problem model and the centralized reference solver."""

import math
from dataclasses import fields, replace
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from slicenet.game import coalition_values
from slicenet.mboe import AccessEstimate
from slicenet.problem import (
    FAMILY_ACCESS,
    FAMILY_BUDGET,
    FAMILY_QOS,
    VARIANTS,
    InfeasibleProblem,
    SlicingProblem,
    _fill,
    as_variant,
    build_problem,
    solution_from_arrays,
    solve_lp_coalitions,
    solve_lp_oracle,
)
from slicenet.scenario import BandPlan, Link, Mno, Node, Scenario, ServiceType
from slicenet.topology import bottleneck_preset, generate_topology, random_problem


def _single_link(min_rate=1e7, access=1.0, budget=2e7, rate=2.0):
    return SlicingProblem(
        link_ids=("l1",),
        link_owner=(1,),
        service_ids=(1,),
        members=(1,),
        mno_budget_hz=(budget,),
        rate_bps_hz=(rate,),
        access=(access,),
        offered=((True,),),
        min_rate_bps=((min_rate,),),
        price_per_bit=((1e-6,),),
        unlicensed_hz=2e7,
        ssg=(frozenset({1}),),
    )


def _assert_same_problem(a, b):
    """Every field of ``a`` equals ``b``'s exactly."""
    for field in fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


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
    assert problem.mno_budget_hz.tolist() == [1e7, 2e7, 4e7]
    assert problem.offered.tolist() == [[True, True], [True, False], [False, False]]
    assert problem.budget_hz.tolist() == [3e7, 3e7, 0.0]
    assert problem.access.tolist() == [0.5, 1.0, 0.0]  # 1.02 is clamped
    assert problem.min_rate_bps.tolist() == [[1e6, 2e6]] * 3
    assert problem.price_per_bit.tolist() == [[1e-6, 2e-6], [5e-6, 2e-6], [1e-6, 2e-6]]
    for variant in ("s1", "s2"):
        built = build_problem(scenario, ESTIMATE, variant)
        _assert_same_problem(built, as_variant(problem, variant))


def test_build_problem_without_services():
    problem = build_problem(_market(), ESTIMATE)
    assert problem.offered.shape == (3, 0)
    assert problem.access.tolist() == [0.0, 0.0, 0.0]
    assert problem.budget_hz.tolist() == [0.0, 0.0, 0.0]
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
    assert set(s1.budget_hz.tolist()) == {0.0}
    assert np.array_equal(s1.access, base.access)
    s2 = as_variant(base, "s2")
    assert set(s2.access.tolist()) == {0.0}
    assert np.array_equal(s2.budget_hz, base.budget_hz)
    _assert_same_problem(as_variant(base, "s3"), base)
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


def _reference_restrict(problem, coalition):
    """The fields ``SlicingProblem.restrict`` rebuilds, as first written:
    a loop over links and slices."""
    budget_of = dict(zip(problem.members, problem.mno_budget_hz.tolist()))
    ssg = tuple(g & coalition for g in problem.ssg)
    keep = [k for k in range(problem.n_links) if problem.link_owner[k] in coalition]
    offered, access, budget = [], [], []
    for k in keep:
        owner = problem.link_owner[k]
        row = tuple(
            bool(problem.offered[k][l]) and owner in ssg[l] for l in range(problem.n_services)
        )
        donors = set()
        for l in range(problem.n_services):
            if row[l]:
                donors |= ssg[l]
        offered.append(row)
        access.append(problem.access[k] if any(row) else 0.0)
        # in member order; the first form added in the set's order, which
        # is the same for operator ids below 8
        budget.append(sum(budget_of[j] for j in problem.members if j in donors))
    members = tuple(i for i in problem.members if i in coalition)
    return {
        "link_ids": tuple(problem.link_ids[k] for k in keep),
        "members": members,
        "mno_budget_hz": [budget_of[j] for j in members],
        "access": access,
        "budget_hz": budget,
        "offered": offered,
        "price_per_bit": [problem.price_per_bit[k].tolist() for k in keep],
        "ssg": ssg,
    }


def test_restrict_matches_its_loop_form():
    # random sharing groups, so that links drop slices and donors differ;
    # budgets are random, so a pooled sum in another order would show,
    # and with nine operators numpy's own row sum would add in another order
    rng = np.random.default_rng(3)
    markets = [
        replace(problem, ssg=tuple(
            frozenset(j for j in problem.members if rng.random() < 0.6)
            for _ in problem.service_ids
        ))
        for problem in _MARKETS[::4]
    ]
    nine = tuple(range(1, 10))
    markets.append(SlicingProblem(
        link_ids=tuple(f"l{j}" for j in nine),
        link_owner=nine,
        service_ids=(1,),
        members=nine,
        mno_budget_hz=rng.uniform(5e6, 2e7, 9),
        rate_bps_hz=np.ones(9),
        access=np.full(9, 0.5),
        offered=np.ones((9, 1), dtype=bool),
        min_rate_bps=np.zeros((9, 1)),
        price_per_bit=np.ones((9, 1)),
        unlicensed_hz=2e7,
        ssg=(frozenset(nine),),
    ))
    for problem in markets:
        for size in range(1, len(problem.members) + 1):
            for coalition in map(frozenset, combinations(problem.members, size)):
                got = problem.restrict(coalition)
                for field, want in _reference_restrict(problem, coalition).items():
                    value = getattr(got, field)
                    if isinstance(value, np.ndarray):
                        want = np.array(want, dtype=value.dtype).reshape(value.shape)
                        assert value.tobytes() == want.tobytes(), field
                    else:
                        assert value == want, field


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
            offered=((False,),),
            min_rate_bps=((0.0,),),
            price_per_bit=((1e-6,),),
            unlicensed_hz=2e7,
            ssg=(frozenset({1}),),
        )


def test_problem_and_solution_arrays_are_read_only_copies():
    rate, offered = np.array([2.0]), np.array([[True]])
    problem = replace(_single_link(), rate_bps_hz=rate, offered=offered)
    u, alpha = np.array([[1e7]]), np.array([[1.0]])
    solution = solution_from_arrays(problem, u, alpha, method="manual")
    # writing to the caller's arrays leaves the problem and solution alone
    rate[0], offered[0, 0], u[0, 0], alpha[0, 0] = 9.0, False, 0.0, 0.0
    assert problem.rate_bps_hz.tolist() == [2.0]
    assert problem.offered.tolist() == [[True]]
    assert solution.u_hz.tolist() == [[1e7]]
    assert solution.alpha.tolist() == [[1.0]]
    numeric = [getattr(problem, name) for name in (
        "mno_budget_hz", "rate_bps_hz", "access", "budget_hz", "offered",
        "min_rate_bps", "price_per_bit",
    )]
    for array in numeric + [solution.u_hz, solution.alpha]:
        assert isinstance(array, np.ndarray) and not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        problem.access[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        solution.u_hz[0, 0] = 0.0


@pytest.mark.parametrize(
    "field, value",
    [("rate_bps_hz", (2.0, 2.0)), ("offered", (True,)), ("min_rate_bps", ((1.0, 2.0),))],
)
def test_field_of_the_wrong_shape_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must have shape"):
        replace(_single_link(), **{field: value})


def test_negative_price_or_floor_rejected():
    with pytest.raises(ValueError, match="link l1 has a negative price"):
        replace(_single_link(), price_per_bit=((-1e-6,),))
    with pytest.raises(ValueError, match="link l1 has a negative QoS floor"):
        _single_link(min_rate=-1.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("unlicensed_hz", -2e7, "unlicensed band .* not finite and nonnegative"),
        ("unlicensed_hz", math.nan, "unlicensed band .* not finite and nonnegative"),
        ("unlicensed_hz", math.inf, "unlicensed band .* not finite and nonnegative"),
        ("rate_bps_hz", (math.nan,), "link l1 has a non-finite rate"),
        ("rate_bps_hz", (math.inf,), "link l1 has a non-finite rate"),
        ("price_per_bit", ((math.nan,),), "link l1 has a non-finite price"),
        ("min_rate_bps", ((math.inf,),), "link l1 has a non-finite QoS floor"),
    ],
)
def test_non_finite_input_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        replace(_single_link(), **{field: value})


@pytest.mark.parametrize("budget", [math.inf, math.nan])
def test_oracle_refuses_a_non_finite_cap(budget):
    # an infinite cap leaves the LP unbounded; no problem is made with a
    # non-finite budget, but the closed form keeps its own check
    p = _single_link()
    with pytest.raises(ValueError, match="licensed caps must be finite"):
        _fill(
            p.offered, p.price_per_bit, p.min_rate_bps, p.rate_bps_hz, np.array([budget]),
            p.access, p.unlicensed_hz,
        )


def test_caps_follow_the_member_budgets():
    base = bottleneck_preset()
    assert base.budget_hz.tolist() == [1e7, 1e7]
    assert not base.budget_hz.flags.writeable
    lean = replace(base, mno_budget_hz=(1e6, 1e6))
    assert lean.budget_hz.tolist() == [2e6, 2e6]
    assert replace(base, mno_budget_hz=(1e6, 3e6)).budget_hz.tolist() == [4e6, 4e6]
    # the oracle and the coalition table price the same market: the
    # grand coalition is worth the optimum, bit for bit
    (grand,) = coalition_values(lean, [{1, 2}])
    assert grand == solve_lp_oracle(lean).objective == 172.0
    assert coalition_values(lean, [{1}, {2}]) == [78.0, 78.0]


def test_access_share_bounds_checked():
    with pytest.raises(ValueError):
        _single_link(access=1.4)
    with pytest.raises(ValueError):
        _single_link(access=-0.2)


# -- the LP as first modelled, through linprog -------------------------------


def _reference_solution(problem):
    """``linprog`` on ``problem``'s allocation LP written row by row: a
    ``u`` and an ``alpha`` column per offered pair, a QoS row per pair
    with a positive floor, and per link that offers a slice a
    licensed-cap row and an airtime equality.  ``None`` where the LP has
    no feasible point; with no pair there is nothing to solve."""
    r, c = problem.rows, problem.cols
    n, band, rate = len(r), problem.unlicensed_hz, problem.rate_bps_hz
    u, alpha = np.zeros((2, *problem.offered.shape))
    if n:
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for k in np.flatnonzero(problem.min_rate_bps[r, c] > 0):
            a_ub.append(np.zeros(2 * n))
            a_ub[-1][[k, n + k]] = -1.0, -band
            b_ub.append(-problem.min_rate_bps[r[k], c[k]] / rate[r[k]])
        for i in np.unique(r):
            on = np.concatenate([r == i, np.zeros(n, dtype=bool)])
            a_ub.append(on * 1.0)
            b_ub.append(problem.budget_hz[i])
            a_eq.append(np.roll(on, n) * 1.0)
            b_eq.append(problem.access[i])
        gain = problem.price_per_bit[r, c] * rate[r]
        res = linprog(
            -np.concatenate([gain, gain * band]),
            A_ub=np.array(a_ub), b_ub=b_ub, A_eq=np.array(a_eq), b_eq=b_eq,
            bounds=[(0.0, None)] * n + [(0.0, 1.0)] * n, method="highs",
        )
        assert res.status in (0, 2), res.message
        if res.status == 2:
            return None
        u[r, c], alpha[r, c] = np.split(np.clip(res.x, 0.0, [np.inf] * n + [1.0] * n), 2)
    return solution_from_arrays(problem, u, alpha, "linprog")


def _reference_family(problem):
    """The blamed family, from ``linprog`` on the two relaxations: every
    member pooling for every slice, then the full channel."""
    pooled = replace(problem, ssg=(frozenset(problem.members),) * problem.n_services)
    if _reference_solution(pooled) is not None:
        return FAMILY_BUDGET
    if _reference_solution(replace(problem, access=problem.offered.any(axis=1))) is not None:
        return FAMILY_ACCESS
    return FAMILY_QOS


def _checked_oracle(problem):
    """``solve_lp_oracle(problem)``, checked against ``linprog``: the
    same status and blamed family, and an optimum within 1e-12 of the
    reference's at a violation of at most 1e-12.  ``None`` where the
    problem has no feasible point."""
    want = _reference_solution(problem)
    if want is None:
        with pytest.raises(InfeasibleProblem) as err:
            solve_lp_oracle(problem)
        assert err.value.family == _reference_family(problem)
        return None
    got = solve_lp_oracle(problem)
    assert abs(got.objective - want.objective) <= 1e-12 * max(1.0, abs(want.objective))
    assert got.max_violation() <= 1e-12
    return got


def _all_coalitions(members):
    return [frozenset(c) for r in range(1, len(members) + 1) for c in combinations(members, r)]


def _bitmask_coalitions(members):
    """Every non-empty coalition in table order: bit ``j`` of its index
    marks ``members[j]``."""
    return [
        frozenset(i for j, i in enumerate(members) if mask >> j & 1)
        for mask in range(1, 1 << len(members))
    ]


def _assert_restrictions_match(market):
    """Every coalition's value, from one ``coalition_values`` call, is
    bit for bit the checked oracle's optimum on the restricted problem,
    0.0 where that has no feasible point.  Returns how many have none."""
    coalitions = _all_coalitions(market.members)
    # a duplicate and the empty coalition change no value
    got = coalition_values(market, coalitions[:1] + [frozenset(), coalitions[0]] + coalitions[1:])
    assert got[1] == 0.0
    want = [_checked_oracle(market.restrict(c)) for c in coalitions]
    values = [0.0 if sol is None else sol.objective for sol in want]
    assert [v.hex() for v in got[:1] + got[2:]] == [v.hex() for v in values[:1] + values]
    return want.count(None)


def _random_markets(seed, passes=10):
    """One market per (operators, links, services) cell of
    ``random_problem(feasible_for="coalitions")``, ``passes`` times over,
    drawn as the benchmark's ``market-random`` workload draws them."""
    rng = np.random.default_rng(seed)
    cells = [(o, n, k) for o in range(2, 5) for n in range(o, 11) for k in (2, 3)]
    spare = {cell: [] for cell in cells}
    markets = []
    for _ in range(passes):
        for cell in cells:
            while not spare[cell]:
                problem = random_problem(rng, feasible_for="coalitions")
                spare[(len(problem.members), problem.n_links, problem.n_services)].append(problem)
            markets.append(spare[cell].pop(0))
    return markets


_MARKETS = _random_markets(1)


def test_oracle_matches_the_linprog_reference():
    # all 480 markets under every variant, infeasible ones included
    solved = [_checked_oracle(as_variant(p, v)) for p in _MARKETS for v in VARIANTS]
    assert len(solved) == 1440
    assert 0 < solved.count(None) < 1440


def test_stacked_highs_call_matches_linprog_bit_for_bit():
    # every coalition of a market in one solve_lp_coalitions call, as the
    # game solves them: each value is bit for bit the checked oracle's
    # optimum on the restricted problem, and None exactly where linprog
    # finds no feasible point; under s1 most stacks hold an infeasible block
    statuses = set()
    for problem in _MARKETS[::8]:
        for variant in ("s1", "s3"):
            market = as_variant(problem, variant)
            coalitions = _bitmask_coalitions(market.members)
            empty, *got = solve_lp_coalitions(market)
            assert empty == 0.0 and len(got) == len(coalitions)
            want = [_checked_oracle(market.restrict(c)) for c in coalitions]
            assert [v is None for v in got] == [sol is None for sol in want]
            assert [v.hex() for v in got if v is not None] == [
                sol.objective.hex() for sol in want if sol is not None
            ]
            statuses.update(v is None for v in got)
    assert statuses == {False, True}


def test_coalition_values_match_restricted_stacks_bit_for_bit():
    # under s1 and s2 many coalitions miss their floors
    infeasible = sum(
        _assert_restrictions_match(as_variant(problem, variant))
        for problem in _MARKETS[::8]
        for variant in VARIANTS
    )
    assert infeasible > 0


def test_a_dense_deployment_matches_the_linprog_reference():
    # the size of the benchmark's dense deployments: 160 links of two
    # operators and their default services, airtime shares drawn at random
    scenario = generate_topology(
        "two-mno-urban", seed=5, bs_per_mno=20, ues_per_bs=4, cell_size_m=200.0, wifi_aps=40
    )
    rng = np.random.default_rng(5)
    shares = {link.id: float(rng.uniform(0.05, 0.6)) for link in scenario.links}
    estimate = AccessEstimate(access=shares, provenance=dict.fromkeys(shares, "table"))
    solved = [_checked_oracle(build_problem(scenario, estimate, v)) for v in VARIANTS]
    # unlicensed only, the floors need more airtime than the links hold
    assert solved[0] is None and None not in solved[1:]
    assert solved[2].problem.n_links == 160


def _edge_markets(case):
    if case == "no-services":
        return [build_problem(_market(), ESTIMATE)]
    if case == "no-band":
        return [replace(p, unlicensed_hz=0.0) for p in _MARKETS[:48:4]]
    return [replace(p, price_per_bit=np.zeros_like(p.price_per_bit)) for p in _MARKETS[:48:4]]


@pytest.mark.parametrize("case", ["no-services", "no-band", "no-tariffs"])
def test_edge_markets_match_the_linprog_reference(case):
    for problem in _edge_markets(case):
        for variant in VARIANTS:
            _assert_restrictions_match(as_variant(problem, variant))
