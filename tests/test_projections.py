"""Exact projections against dense-grid brute force, metric properties,
and the stacked-row form against an independent scalar reference."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slicenet.projections import (
    budget_box_rows,
    capped_simplex_rows,
    check_budgets,
    feasible_totals,
    project_budget_box,
    project_capped_simplex_eq,
)
from slicenet.solvers import z_projection

GRID_STEP = 1e-3


def _ref_water_fill(y, total):
    """Reference: {x >= 0, sum x = total} for one row, by sorting."""
    if total <= 0.0:
        return np.zeros_like(y)
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, y.size + 1)
    # the largest entry qualifies in exact arithmetic, whatever roundoff
    # does to a total far below its last digit
    k = max(np.nonzero(u - (css - total) / ks > 0)[0], default=0) + 1
    return np.maximum(y - (css[k - 1] - total) / k, 0.0)


def _ref_capped_simplex(y, total, cap):
    """Reference: {sum x = total, 0 <= x <= cap} for one row, by a
    scalar walk over the sorted, deduplicated breakpoints."""
    if y.size == 0:
        return np.zeros(0)
    if not math.isfinite(cap):
        return _ref_water_fill(y, total)
    total = min(max(0.0, total), y.size * cap)
    ys = y.tolist()

    def mass(tau):
        acc = 0.0
        for v in ys:
            d = v - tau
            if d >= cap:
                acc += cap
            elif d > 0.0:
                acc += d
        return acc

    points = sorted({v - cap for v in ys} | set(ys))
    tau = points[-1]
    if mass(points[0]) <= total:
        tau = points[0]
    else:
        for a, b in zip(points, points[1:]):
            ma, mb = mass(a), mass(b)
            if mb <= total <= ma:
                tau = a if ma == mb else a + (ma - total) * (b - a) / (ma - mb)
                break
    return np.clip(y - tau, 0.0, cap)


def _ref_budget_box(y, budget, cap):
    inside = np.clip(y, 0.0, cap if math.isfinite(cap) else None)
    if inside.sum() <= budget:
        return inside
    return _ref_capped_simplex(y, budget, cap)


def _grid_simplex_oracle(y, total, cap):
    """Best feasible point on a 1e-3 grid, two coordinates: x1 from the
    grid, x0 pinned by the equality constraint."""
    x1 = np.arange(0.0, cap + GRID_STEP / 2, GRID_STEP)
    x0 = total - x1
    ok = (x0 >= 0.0) & (x0 <= cap)
    d = (x0 - y[0]) ** 2 + (x1 - y[1]) ** 2
    d[~ok] = np.inf
    best = int(np.argmin(d))
    return np.array([x0[best], x1[best]])


def _grid_box_oracle(y, budget, cap):
    hi = min(cap, budget)
    ax = np.arange(0.0, hi + GRID_STEP / 2, GRID_STEP)
    g0, g1 = np.meshgrid(ax, ax, indexing="ij")
    ok = g0 + g1 <= budget + 1e-12
    d = (g0 - y[0]) ** 2 + (g1 - y[1]) ** 2
    d[~ok] = np.inf
    k = int(np.argmin(d))
    return np.array([g0.flat[k], g1.flat[k]])


def test_capped_simplex_pins():
    out = project_capped_simplex_eq(np.array([1.5, 0.1]), 1.0, cap=1.0)
    assert np.allclose(out, [1.0, 0.0])
    out = project_capped_simplex_eq(np.array([0.2, 0.2, 0.2]), 0.6, cap=1.0)
    assert np.allclose(out, [0.2, 0.2, 0.2])


def test_capped_simplex_matches_grid():
    rng = np.random.default_rng(5)
    for _ in range(100):
        y = rng.uniform(-1.5, 2.5, size=2)
        cap = rng.uniform(0.3, 1.5)
        total = rng.uniform(0.0, 2 * cap)
        got = project_capped_simplex_eq(y, total, cap=cap)
        ref = _grid_simplex_oracle(y, total, cap)
        # the grid answer is itself off by up to the step size
        assert np.linalg.norm(got - ref) <= 2 * GRID_STEP
        assert math.isclose(got.sum(), total, abs_tol=1e-9)
        assert np.all(got >= -1e-12) and np.all(got <= cap + 1e-12)


def test_budget_box_matches_grid():
    rng = np.random.default_rng(6)
    for _ in range(100):
        y = rng.uniform(-1.0, 2.0, size=2)
        budget = rng.uniform(0.2, 1.5)
        got = project_budget_box(y, budget)
        ref = _grid_box_oracle(y, budget, budget)
        assert np.linalg.norm(got - ref) <= 2 * GRID_STEP
        assert got.sum() <= budget + 1e-9
        assert np.all(got >= -1e-12)


def test_budget_box_zero_budget():
    out = project_budget_box(np.array([0.4, -0.2, 3.0]), 0.0)
    assert np.allclose(out, 0.0)


def _halfspace(u0, a0, beta, bound):
    """z_projection on one (link, slice) pair with a zero dual."""
    u, a = z_projection([[u0], [a0]], [[0.0], [0.0]], beta, [bound])
    return float(u[0]), float(a[0])


def test_z_projection_halfspace_pin():
    u, a = _halfspace(0.0, 0.0, 1.0, 1.0)
    assert math.isclose(u, 0.5) and math.isclose(a, 0.5)


def test_z_projection_matches_grid():
    rng = np.random.default_rng(7)
    for _ in range(100):
        u0, a0 = rng.uniform(-1.0, 1.0, size=2)
        beta = rng.uniform(0.1, 3.0)
        bound = rng.uniform(-0.5, 1.5)
        u, a = _halfspace(u0, a0, beta, bound)
        assert u + beta * a >= bound - 1e-9
        if u0 + beta * a0 >= bound:
            assert (u, a) == (u0, a0)
        else:
            span = np.arange(-2.0, 3.0, GRID_STEP)
            ug = bound - beta * span
            d = (ug - u0) ** 2 + (span - a0) ** 2
            k = int(np.argmin(d))
            ref = np.array([ug[k], span[k]])
            assert np.linalg.norm(np.array([u, a]) - ref) <= 2 * GRID_STEP


@st.composite
def _simplex_case(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    y = draw(
        st.lists(
            st.floats(-5, 5, allow_nan=False, width=32), min_size=n, max_size=n
        )
    )
    cap = draw(st.floats(0.125, 2.0, allow_nan=False, width=32))
    frac = draw(st.floats(0.0, 1.0, allow_nan=False, width=32))
    return np.asarray(y, dtype=float), float(n * cap * frac), float(cap)


@given(_simplex_case())
def test_capped_simplex_idempotent(case):
    y, total, cap = case
    once = project_capped_simplex_eq(y, total, cap=cap)
    twice = project_capped_simplex_eq(once, total, cap=cap)
    assert np.allclose(once, twice, atol=1e-8)


@given(_simplex_case(), _simplex_case())
def test_capped_simplex_nonexpansive(c1, c2):
    y1, total, cap = c1
    y2 = c2[0]
    if len(y2) != len(y1):
        y2 = np.resize(y2, len(y1))
    p1 = project_capped_simplex_eq(y1, total, cap=cap)
    p2 = project_capped_simplex_eq(y2, total, cap=cap)
    assert np.linalg.norm(p1 - p2) <= np.linalg.norm(y1 - y2) + 1e-8


@given(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.floats(0.01, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)
def test_z_projection_idempotent_and_feasible(u0, a0, beta, bound):
    u, a = _halfspace(u0, a0, beta, bound)
    assert u + beta * a >= bound - 1e-7 * max(1.0, abs(bound))
    uu, aa = _halfspace(u, a, beta, bound)
    assert math.isclose(u, uu, abs_tol=1e-7) and math.isclose(a, aa, abs_tol=1e-7)


def test_simplex_rejects_impossible_mass():
    with pytest.raises(ValueError):
        project_capped_simplex_eq(np.array([0.5, 0.5]), 3.0, cap=1.0)
    with pytest.raises(ValueError):
        project_capped_simplex_eq(np.array([0.5, 0.5]), -0.2, cap=1.0)


# a few repeated values make tied entries and tied breakpoints common
_ENTRY = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]),
    st.floats(-3, 3, allow_nan=False, width=32),
)


@st.composite
def _stacked_case(draw):
    """Rows of 1-6 entries under a random mask, with per-row totals at
    0, at full capacity or in between."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=5))
    y = np.array(draw(st.lists(_ENTRY, min_size=n * m, max_size=n * m))).reshape(n, m)
    mask = np.array(
        draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    ).reshape(n, m)
    cap = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0, math.inf]))
    totals = []
    for count in mask.sum(axis=1):
        room = count * cap if math.isfinite(cap) else 4.0 * count
        frac = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
        totals.append(float(room * frac))
    return y, mask, np.array(totals), cap


def _check_rows(got, y, mask, ref):
    assert got.shape == y.shape
    assert np.all(got[~mask] == 0.0)
    for k in range(len(y)):
        want = ref(y[k, mask[k]], k)
        assert np.allclose(got[k, mask[k]], want, rtol=0.0, atol=1e-12)


@given(_stacked_case())
def test_stacked_capped_simplex_matches_reference(case):
    y, mask, totals, cap = case
    got = project_capped_simplex_eq(np.where(mask, y, np.nan), totals, cap=cap)
    _check_rows(got, y, mask, lambda row, k: _ref_capped_simplex(row, totals[k], cap))


@given(_stacked_case())
def test_stacked_budget_box_matches_reference(case):
    y, mask, budgets, cap = case
    got = project_budget_box(np.where(mask, y, np.nan), budgets, cap=cap)
    _check_rows(got, y, mask, lambda row, k: _ref_budget_box(row, budgets[k], cap))


@given(_stacked_case())
def test_unchecked_cores_match_the_projections_bit_for_bit(case):
    # the solvers check totals and budgets once and call the cores with
    # their own mask; the public projections derive it from the NaNs
    y, mask, totals, cap = case
    padded = np.where(mask, y, np.nan)
    simplex = capped_simplex_rows(padded, feasible_totals(totals, mask.sum(axis=1), cap), ~mask, cap)
    want = project_capped_simplex_eq(padded, totals, cap=cap)
    assert simplex.tobytes() == want.tobytes()
    check_budgets(totals)
    box = budget_box_rows(padded, totals, ~mask, cap)
    assert box.tobytes() == project_budget_box(padded, totals, cap=cap).tobytes()


def test_all_masked_row_stays_zero():
    y = np.array([[np.nan, np.nan], [0.3, np.nan]])
    out = project_capped_simplex_eq(y, [0.0, 1.0])
    assert np.array_equal(out, [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        project_capped_simplex_eq(y, [0.5, 1.0])
    assert np.array_equal(project_budget_box(y, [1.0, 0.1]), [[0.0, 0.0], [0.1, 0.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_totals_raise(bad):
    # a NaN total used to pass every bound test: the simplex returned
    # [1, 1] (sum 2) and the budget box the point unprojected
    y = np.array([0.3, 0.5])
    with pytest.raises(ValueError):
        project_capped_simplex_eq(y, bad)
    with pytest.raises(ValueError):
        project_capped_simplex_eq(y, bad, cap=math.inf)
    with pytest.raises(ValueError):
        project_budget_box(y, bad)
    with pytest.raises(ValueError):
        project_budget_box(np.array([[0.3, 0.5], [0.1, 0.2]]), [1.0, bad], cap=1.0)
    with pytest.raises(ValueError):
        project_capped_simplex_eq(np.array([[0.3, 0.5], [0.1, 0.2]]), [0.5, bad])


def test_cap_must_be_positive():
    # the box took any cap: -1 returned [-1, -1], outside its own set,
    # and NaN the point unclipped
    for cap in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="cap must be positive"):
            project_capped_simplex_eq(np.array([0.3, 0.5]), 0.0, cap=cap)
        with pytest.raises(ValueError, match="cap must be positive"):
            project_budget_box(np.array([0.3, 0.5]), 1.0, cap=cap)


def test_projections_raise_no_floating_point_warnings():
    # absent entries, empty rows, zero totals and full rows, with and
    # without a cap: the projections handle them without a 0/0 or inf - inf
    y = np.array([[np.nan, np.nan, np.nan], [0.3, np.nan, 2.0], [0.5, 0.5, 0.5], [-1.0, 4.0, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cap in (1.0, math.inf):
            room = 1.0 if math.isfinite(cap) else 4.0
            for totals in ([0.0, 0.0, 0.0, 0.0], [0.0, 2 * room, 3 * room, 0.5], [0.0, 0.7, 1.2, 2.0]):
                out = project_capped_simplex_eq(y, totals, cap=cap)
                assert np.allclose(out.sum(axis=1), totals)
                box = project_budget_box(y, totals, cap=cap)
                assert np.all(box.sum(axis=1) <= np.asarray(totals) + 1e-12)


# -- the unchecked cores as first written -------------------------------------
#
# The solver reference loops in test_solvers.py reach the cores through
# the public projections, so a last-bit drift in a core would move a
# solver and its reference together.  These copies pin the cores' bits
# on their own.


def _first_water_fill(y, total, absent):
    n, m = y.shape
    u = -y
    u.sort(axis=1)
    u = -u
    css = u.cumsum(axis=1)
    cond = u - (css - total[:, None]) / np.arange(1, m + 1) > 0
    k = 1 + np.where(cond, np.arange(m), 0).max(axis=1)
    tau = (css.take(np.arange(0, n * m, m) + (k - 1)) - total) / k
    empty = absent | (total <= 0.0)[:, None]
    return np.where(empty, 0.0, np.maximum(y - tau[:, None], 0.0))


def _first_capped_simplex_rows(y, total, absent, cap):
    # a finite cap that binds fixes the entries above it at the cap and
    # water-fills the others again with what is left of the total
    x = _first_water_fill(y, total, absent)
    fixed = np.zeros(y.shape, bool)
    while (x > cap).any():
        fixed |= x > cap
        rest = total - cap * fixed.sum(axis=1)
        x = _first_water_fill(np.where(fixed, np.nan, y), rest, absent | fixed)
    return np.where(fixed, cap, x)


def _first_budget_box_rows(y, budget, absent, cap):
    box = np.minimum(cap, np.maximum(0.0, y)) if math.isfinite(cap) else np.maximum(y, 0.0)
    inside = np.where(absent, 0.0, box)
    over = inside.sum(axis=1) > budget
    if np.count_nonzero(over):
        inside = np.where(over[:, None], _first_capped_simplex_rows(y, budget, absent, cap), inside)
    return inside


def _hex(x):
    """Shape and every entry as ``float.hex``, so -0.0 differs from 0.0."""
    return x.shape, [v.hex() for v in x.ravel().tolist()]


def _assert_cores_match_first_form(y, mask, totals, cap):
    padded = np.where(mask, y, np.nan)
    absent = ~mask
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        totals = feasible_totals(totals, mask.sum(axis=1), cap)
        check_budgets(totals)
        for core, first in (
            (capped_simplex_rows, _first_capped_simplex_rows),
            (budget_box_rows, _first_budget_box_rows),
        ):
            want = _hex(first(padded, totals, absent, cap))
            assert _hex(core(padded, totals, absent, cap)) == want, core.__name__
            # the solvers' form, written into a buffer
            out = np.full(y.shape, 7.0)
            assert core(padded, totals, absent, cap, out) is out
            assert _hex(out) == want, core.__name__


#: signed zeros, ties and entries so large that a cap is below their
#: last digit
_EDGE_ENTRY = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, -1.0, 1.8e16, -1.8e16]),
    st.floats(-3, 3, allow_nan=False, width=32),
)


@st.composite
def _edge_case(draw, caps=(0.25, 1.0, 1.5, math.inf)):
    """Rows as for ``_stacked_case``, from the edge entries, with the
    totals at 0, -0.0, full capacity or in between."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=6))
    y = np.array(draw(st.lists(_EDGE_ENTRY, min_size=n * m, max_size=n * m))).reshape(n, m)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))).reshape(n, m)
    cap = draw(st.sampled_from(caps))
    totals = []
    for count in mask.sum(axis=1):
        room = count * cap if math.isfinite(cap) else 4.0 * count
        frac = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)))
        totals.append(float(room * frac))
    return y, mask, np.array(totals), cap


@given(_stacked_case())
def test_cores_match_their_first_form_bit_for_bit(case):
    y, mask, totals, cap = case
    _assert_cores_match_first_form(y, mask, totals, cap)


@given(_edge_case())
def test_cores_match_their_first_form_on_edge_entries(case):
    y, mask, totals, cap = case
    _assert_cores_match_first_form(y, mask, totals, cap)


_EDGE_ROWS = np.array([
    [-0.0, -0.0, -0.0],
    [-0.0, 0.0, 1.0],
    # at a quarter of the capacity tau is +0.0 and the first entry
    # lands on the clamp as -0.0
    [-0.0, 0.5, 0.25],
    [0.5, 0.5, 0.5],
    [1.0, 0.0, 1.0],
    [1.8e16, -1.8e16, 0.3],
    [1.8e16, 1.8e16, 1.8e16],
    [-1.8e16, -0.0, -1.8e16],
    [0.3, -0.2, 0.7],
])


@pytest.mark.parametrize("cap", [0.25, 1.0, math.inf])
@pytest.mark.parametrize(
    "fill", [0.0, -0.0, 0.25, 0.5, 1.0], ids=["zero", "negative-zero", "quarter", "half", "full"]
)
def test_cores_match_their_first_form_on_edge_rows(cap, fill):
    y, mask, room = _edge_stack(1.0 if math.isinf(cap) else cap)
    # which entries share a vector register depends on their position,
    # so the stack runs forwards, backwards and one row at a time
    everyone = np.arange(len(y))
    for rows in (everyone, everyone[::-1], *everyone[:, None]):
        _assert_cores_match_first_form(y[rows], mask[rows], room[rows] * fill, cap)


def _edge_stack(cap):
    """Every edge row, again with its first entry absent, and two rows
    with every entry absent; each row's capacity at ``cap``."""
    y = np.vstack([_EDGE_ROWS, _EDGE_ROWS, _EDGE_ROWS[:2]])
    mask = np.ones(y.shape, bool)
    mask[len(_EDGE_ROWS):, 0] = False
    mask[-2:] = False
    return y, mask, mask.sum(axis=1) * cap


# -- a finite cap: the water fill and its refills ------------------------------


def _assert_refill_rows(y, mask, totals, cap):
    """Both public projections at a finite cap: absent entries are exactly
    0 and every entry is in [0, cap].  A row within +-3 matches the scalar
    references and meets its total within 1e-12; a row holding +-1.8e16
    meets it within two ulps of its largest entry, which the cap is
    below the last digit of."""
    padded = np.where(mask, y, np.nan)
    # every other row's budget is above its capacity: its box fits, and
    # the equality projection the core computes for every row is
    # discarded there
    odd = np.arange(len(y)) % 2 == 1
    mixed = np.where(odd, mask.sum(axis=1) * cap + 1.0, totals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simplex = project_capped_simplex_eq(padded, totals, cap=cap)
        box = project_budget_box(padded, totals, cap=cap)
        loose = project_budget_box(padded, mixed, cap=cap)
    for got in (simplex, box, loose):
        assert np.all(got[~mask] == 0.0)
        assert np.all((got >= 0.0) & (got <= cap))
    assert np.array_equal(loose[odd], np.where(mask, np.clip(y, 0.0, cap), 0.0)[odd])
    assert loose[~odd].tobytes() == box[~odd].tobytes()
    for k, total in enumerate(np.maximum(totals, 0.0).tolist()):
        row = y[k, mask[k]]
        if np.all(np.abs(row) <= 3.0):
            want = _ref_capped_simplex(row, total, cap)
            assert np.allclose(simplex[k, mask[k]], want, rtol=0.0, atol=1e-12)
            want = _ref_budget_box(row, total, cap)
            assert np.allclose(box[k, mask[k]], want, rtol=0.0, atol=1e-12)
            slack = 1e-12
        else:
            slack = 2 * np.spacing(np.abs(row).max())
        assert abs(simplex[k].sum() - total) <= slack
        assert box[k].sum() <= total + slack


@given(_edge_case(caps=(0.25, 1.0, 1.5)))
def test_refill_on_edge_entries(case):
    _assert_refill_rows(*case)


@pytest.mark.parametrize("cap", [0.25, 1.0, 1.5])
@pytest.mark.parametrize("fill", [0.0, -0.0, 0.25, 0.5, 1.0])
def test_refill_on_edge_rows(cap, fill):
    y, mask, room = _edge_stack(cap)
    _assert_refill_rows(y, mask, room * fill, cap)
