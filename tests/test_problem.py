"""Allocation problem model and the centralized reference solver."""

import math
from dataclasses import fields, replace
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_array

from slicenet.game import coalition_values
from slicenet.mboe import AccessEstimate
from slicenet.problem import (
    FAMILY_ACCESS,
    FAMILY_BUDGET,
    FAMILY_QOS,
    VARIANTS,
    InfeasibleProblem,
    LPModel,
    SlicingProblem,
    _coalition_pairs,
    _highs,
    _lp_model,
    _problem_pairs,
    as_variant,
    build_problem,
    solution_from_arrays,
    solve_lp_oracle,
)
from slicenet.scenario import BandPlan, Link, Mno, Node, Scenario, ServiceType
from slicenet.topology import bottleneck_preset, random_problem


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
        budget_hz=np.zeros(9),
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
            budget_hz=(1e7,),
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


def test_access_share_bounds_checked():
    with pytest.raises(ValueError):
        _single_link(access=1.4)
    with pytest.raises(ValueError):
        _single_link(access=-0.2)


# -- the HiGHS call as first written, through linprog ------------------------


def _block_diagonal(models):
    """``models`` as one block-diagonal model: each model's rows and
    columns follow those of the models before it, and each triplet
    list runs model by model."""
    col_at = np.cumsum([0] + [len(m.c) for m in models])

    def triplets(part, rhs):
        row_at = np.cumsum([0] + [len(getattr(m, rhs)) for m in models])
        parts = [getattr(m, part) for m in models]
        return (
            np.concatenate([t[0] + o for t, o in zip(parts, row_at)]),
            np.concatenate([t[1] + o for t, o in zip(parts, col_at)]),
            np.concatenate([t[2] for t in parts]),
        )

    return LPModel(
        c=np.concatenate([m.c for m in models]),
        ub=triplets("ub", "b_ub"),
        b_ub=np.concatenate([m.b_ub for m in models]),
        eq=triplets("eq", "b_eq"),
        b_eq=np.concatenate([m.b_eq for m in models]),
        bounds=np.concatenate([m.bounds for m in models]),
        u_col=np.concatenate([m.u_col + o for m, o in zip(models, col_at)]),
        alpha_col=np.concatenate([m.alpha_col + o for m, o in zip(models, col_at)]),
    )


def _reference_linprog(models):
    """The stacked solve as first written: ``A_ub`` and ``A_eq`` as two
    block-diagonal ``coo_array`` matrices, handed to ``linprog``."""
    stack = _block_diagonal(models)
    n = len(stack.c)

    def matrix(part, rhs):
        rows, cols, values = getattr(stack, part)
        return coo_array((values, (rows, cols)), shape=(len(getattr(stack, rhs)), n))

    return linprog(
        stack.c,
        A_ub=matrix("ub", "b_ub"),
        b_ub=stack.b_ub,
        A_eq=matrix("eq", "b_eq"),
        b_eq=stack.b_eq,
        bounds=stack.bounds,
        method="highs",
    )


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


def _assert_same_lp(problems, pairs=None):
    """HiGHS on ``pairs``, the pairs of ``problems`` in one stack (by
    default the one problem's own block), returns what ``linprog``
    returns on the block diagonal of their one-block models."""
    if pairs is None:
        (problem,) = problems
        pairs = _problem_pairs(problem)
    got = _highs(_lp_model(pairs))
    want = _reference_linprog([_lp_model(_problem_pairs(p)) for p in problems])
    assert got.status == want.status
    if want.x is None:
        assert got.x is None
    else:
        assert got.x.tobytes() == want.x.tobytes()
    return want.status


def _sorted_triplets(triplets):
    """``(row, col, value)`` triplets in CSC order, by column and then row."""
    order = np.lexsort((triplets[0], triplets[1]))
    return [t[order] for t in triplets]


def test_highs_call_matches_linprog_bit_for_bit():
    # all 480 markets under every variant, infeasible ones included
    statuses = [_assert_same_lp([as_variant(p, v)]) for p in _MARKETS for v in VARIANTS]
    assert len(statuses) == 1440
    assert set(statuses) == {0, 2}


def test_stacked_highs_call_matches_linprog_bit_for_bit():
    # every coalition of a market in one stack, as the game solves them;
    # under s1 most stacks hold an infeasible block
    statuses = set()
    for problem in _MARKETS[::8]:
        members = problem.members
        for variant in ("s1", "s3"):
            market = as_variant(problem, variant)
            coalitions = [
                frozenset(c) for r in range(1, len(members) + 1) for c in combinations(members, r)
            ]
            restricted = [market.restrict(c) for c in coalitions]
            # the game's mask pass lays out the block diagonal of the
            # restricted problems' one-block models
            masked = _coalition_pairs(market, market.coalition_mask(coalitions))
            statuses.add(_assert_same_lp(restricted, masked))
            got = _lp_model(masked)
            want = _block_diagonal([_lp_model(_problem_pairs(p)) for p in restricted])
            for name in ("c", "b_ub", "b_eq", "bounds", "u_col", "alpha_col"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            for name in ("ub", "eq"):
                got_t, want_t = (_sorted_triplets(getattr(m, name)) for m in (got, want))
                for a, b in zip(got_t, want_t):
                    assert a.tobytes() == b.tobytes(), name
    assert statuses == {0, 2}


def _reference_values(restricted):
    """The optimal welfare of each of ``restricted``, 0.0 where it has
    no feasible point: ``linprog`` on the block diagonal of their
    one-block models, or on each model alone where that stack is
    infeasible, each block's value read as ``solution_from_arrays``
    computes it."""
    models = [_lp_model(_problem_pairs(p)) for p in restricted]
    stack = _reference_linprog(models)
    if stack.status == 2:
        xs = [_reference_linprog([m]).x for m in models]
    else:
        col_at = np.cumsum([len(m.c) for m in models])
        xs = np.split(stack.x, col_at[:-1])
    values = []
    for problem, model, x in zip(restricted, models, xs):
        if x is None:
            values.append(0.0)
            continue
        x = np.clip(x, model.bounds[:, 0], model.bounds[:, 1])
        r, c = problem.rows, problem.cols
        u, alpha = np.zeros((2, *problem.offered.shape))
        u[r, c], alpha[r, c] = x[model.u_col], x[model.alpha_col]
        values.append(solution_from_arrays(problem, u, alpha, "lp").objective)
    return values


def test_coalition_values_match_restricted_stacks_bit_for_bit():
    # the game's mask pass against linprog on the restricted problems;
    # under s1 and s2 most stacks hold an infeasible block, so the
    # one-by-one fallback runs too
    infeasible = 0
    for problem in _MARKETS[::8]:
        members = problem.members
        coalitions = [
            frozenset(c) for r in range(1, len(members) + 1) for c in combinations(members, r)
        ]
        for variant in VARIANTS:
            market = as_variant(problem, variant)
            want = _reference_values([market.restrict(c) for c in coalitions])
            infeasible += want.count(0.0)
            # a duplicate and the empty coalition change neither the
            # stack nor its values
            asked = coalitions[:1] + [frozenset(), coalitions[0]] + coalitions[1:]
            got = coalition_values(market, asked)
            assert got[1] == 0.0
            assert [v.hex() for v in got[:1] + got[2:]] == [v.hex() for v in want[:1] + want]
    assert infeasible > 0
