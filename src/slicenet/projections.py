"""Exact Euclidean projections used by the per-link solvers.

Every routine here is closed-form (sorting or breakpoint walks, no
iterative optimization), so projections are exact to floating-point
roundoff.  That matters: the distributed solver's convergence proofs
assume its subproblems are solved exactly, and the test suite holds
these functions to brute-force grids.

Both projections work on stacked rows: the last axis of ``y`` is one
row's coordinates, every leading axis indexes independent rows, and
the row totals broadcast over those leading axes.  A NaN entry is not
part of its row's set (a slice the link does not offer); it comes back
as exactly 0.  A plain vector is one row.  Totals and budgets must be
finite.

The solvers call these on a few links at a time, thousands of times
per solve, so the arithmetic is written for few numpy calls: row-wise
lookups index the flattened arrays, results are written in place (into
the caller's ``out`` buffer when given), and clamps are ``maximum`` and
``minimum`` with their arguments in the order that gives ``np.clip``'s
results bit for bit, signed zeros included.  Those clamps keep NaN, so
the absent entries of a result are zeroed by one ``putmask``.  Only the
breakpoint mass drops its NaNs with ``fmax``: on a tie of -0.0 and +0.0
numpy's vectorized ``fmax`` returns one operand in some lanes and the
other in the rest, and the mass is the one place where a zero's sign
cannot reach the result.

Each public projection is its input checks followed by an unchecked
core (:func:`capped_simplex_rows`, :func:`budget_box_rows`) that holds
the only copy of its math.  The solvers' totals, budgets and masks are
fixed for the whole solve, so ``solvers._Scaled`` checks them once
(:func:`feasible_totals`, :func:`check_budgets`); the cores are then
called by the ADMM block functions (``solvers.alpha_subproblem`` and
``solvers.w_subproblem``) and by the repair's per-link projection.  The
public projections are the checked entry points for any other caller.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_LARGEST = np.finfo(float).max
#: indexed by whether a row has a present entry: an uncapped row's
#: capacity (every finite total fits a nonempty row), and the tolerance
#: a total may exceed its capacity by
_UNCAPPED = np.array([0.0, _LARGEST])
_SLACK = np.array([1e-12, 1e-9])


@functools.lru_cache(maxsize=64)
def _arange(stop: int, step: int = 1) -> np.ndarray:
    """``np.arange(0, stop, step)``, read-only and kept across calls."""
    out = np.arange(0, stop, step)
    out.setflags(write=False)
    return out


def _rows(y, total):
    """(rows, m) values, (rows,) totals and the input's shape."""
    y = np.asarray(y, dtype=float)
    totals = np.empty(y.shape[:-1])
    totals[...] = total
    return y.reshape(-1, y.shape[-1]), totals.reshape(-1), y.shape


def feasible_totals(totals, count, cap: float) -> np.ndarray:
    """``totals`` clipped into each row's ``[0, count * cap]``; raise for
    a total outside that range by more than roundoff, NaN and infinite
    totals included.  ``count`` is each row's number of present entries."""
    present = count > 0
    capacity = count * cap if math.isfinite(cap) else _UNCAPPED.take(present)
    # one test for every row; NaN fails both comparisons
    ok = (totals >= -1e-12) & (totals <= capacity + _SLACK.take(present))
    if np.count_nonzero(ok) < ok.size:
        k = int(np.argmin(ok))
        if not math.isfinite(totals[k]):
            raise ValueError(f"non-finite simplex total {totals[k]}")
        if totals[k] < -1e-12:
            raise ValueError(f"negative simplex total {totals[k]}")
        if count[k] == 0:
            raise ValueError("cannot distribute a positive total over nothing")
        raise ValueError(f"total {totals[k]} exceeds capacity {capacity[k]}")
    return np.minimum(np.maximum(totals, 0.0), capacity)


def check_budgets(budgets) -> None:
    """Raise for a negative or non-finite budget."""
    ok = (budgets >= 0.0) & (budgets <= _LARGEST)
    if np.count_nonzero(ok) < ok.size:
        bad = budgets[int(np.argmin(ok))]
        kind = "negative" if bad < 0.0 else "non-finite"
        raise ValueError(f"{kind} budget {bad}")


def _water_fill(y, total, absent, out=None) -> np.ndarray:
    """Project each row onto {x >= 0, sum x = total} by water-filling."""
    n, m = y.shape
    # rows in descending order with the absent entries (NaN) last: they
    # never satisfy the condition, and raise no floating-point warning
    u = -y
    u.sort(axis=1)
    np.negative(u, out=u)
    css = u.cumsum(axis=1)
    cond = u - (css - total[:, None]) / _arange(m + 1)[1:] > 0
    # the largest entry always qualifies in exact arithmetic; a total
    # below its roundoff can fail the test and must not drop it
    last = (cond * _arange(m)).max(axis=1)
    tau = (css.take(_arange(n * m, m) + last) - total) / (last + 1)
    x = np.subtract(y, tau[:, None], out=out)
    np.maximum(x, 0.0, out=x)
    np.putmask(x, absent, 0.0)
    empty = total <= 0.0
    if np.count_nonzero(empty):
        x[empty] = 0.0
    return x


@functools.lru_cache(maxsize=64)
def _segment_ends(n: int, m: int) -> np.ndarray:
    """Flat positions of the breakpoint before and at the start of each
    of ``n`` rows of ``2 m`` breakpoints, read-only and kept across
    calls; a row's segment ends are these plus its breakpoint index."""
    out = np.arange(0, 2 * n * m, 2 * m) + np.array([[-1], [0]])
    out.setflags(write=False)
    return out


def _breakpoint_walk(y, total, absent, cap: float, out=None) -> np.ndarray:
    """Solve sum clip(y - tau, 0, cap) = total for tau, row by row.

    The mass is piecewise linear and nonincreasing in tau, with
    breakpoints {y - cap, y} over a row's present entries; absent ones
    give NaN breakpoints, which sort last, and NaN differences, which
    ``fmax`` counts as 0.  The mass is evaluated at every breakpoint at
    once.  The breakpoints whose mass exceeds the total form a prefix
    (the computed mass is monotone too); the segment leaving it holds
    tau, found by interpolation across a strictly falling mass, and a
    row with an empty prefix takes its lowest breakpoint.
    """
    n, m = y.shape
    points = np.concatenate([y - cap, y], axis=1)
    points.sort(axis=1)
    d = y[:, None, :] - points[:, :, None]
    # a zero's sign here never reaches tau: it only decides whether a
    # mass of exactly 0 is +0.0 or -0.0, and such a mass never exceeds
    # the total, so it never starts a segment, and where it ends one only
    # the difference of the two masses reads it
    np.fmax(d, 0.0, out=d)
    mass = np.minimum(d, cap, out=d).sum(axis=2)
    # the prefix ends at the first breakpoint whose mass does not exceed
    # the total; the row's largest breakpoint (mass 0) or a NaN one
    # always qualifies
    j = (mass > total[:, None]).argmin(axis=1)
    ends = _segment_ends(n, m) + j
    a, b = points.take(ends)
    ma, mb = mass.take(ends)
    # a row with j = 0 reads its neighbour's last breakpoint and its
    # interpolation is discarded; its divisor is set to 1 so that a flat
    # mass (entries so large that y - cap rounds to y) divides no 0 by 0
    first = j == 0
    fall = ma - mb
    np.putmask(fall, first, 1.0)
    tau = np.where(first, points[:, 0], a + (ma - total) * (b - a) / fall)
    x = np.subtract(y, tau[:, None], out=out)
    np.minimum(cap, np.maximum(0.0, x, out=x), out=x)
    np.putmask(x, absent, 0.0)
    return x


def capped_simplex_rows(y, total, absent, cap: float, out=None) -> np.ndarray:
    """Rows onto {sum x = total, 0 <= x <= cap}, unchecked.

    ``y`` is ``(rows, m)`` with NaN exactly where ``absent`` holds, and
    ``total`` comes from :func:`feasible_totals`.  The rows are written
    into ``out`` when it is given; it must not overlap ``y``."""
    if math.isfinite(cap):
        return _breakpoint_walk(y, total, absent, cap, out)
    return _water_fill(y, total, absent, out)


def budget_box_rows(y, budget, absent, cap: float, out=None) -> np.ndarray:
    """Rows onto {sum x <= budget, 0 <= x <= cap}, unchecked.

    When the box projection already fits the budget it is the answer;
    otherwise the budget binds and the equality projection applies.
    ``y``, ``absent`` and ``out`` are as for :func:`capped_simplex_rows`,
    and the budgets have passed :func:`check_budgets`."""
    if math.isfinite(cap):
        inside = np.maximum(0.0, y, out=out)
        np.minimum(cap, inside, out=inside)
    else:
        inside = np.maximum(y, 0.0, out=out)
    np.putmask(inside, absent, 0.0)
    over = inside.sum(axis=1) > budget
    if np.count_nonzero(over):
        # a binding budget is below the row's capacity, so the equality
        # projection is feasible; it is computed for every row and kept
        # where the budget binds
        np.copyto(inside, capped_simplex_rows(y, budget, absent, cap), where=over[:, None])
    return inside


def project_capped_simplex_eq(y, total, cap: float = 1.0) -> np.ndarray:
    """Project each row of y onto {x: sum x = total, 0 <= x_i <= cap}.

    The feasible set is empty unless 0 <= total <= n*cap, n counting
    the row's present entries; that is a caller error, and so are a
    non-finite total and a cap that is not positive.  The projection
    is x_i = clip(y_i - tau, 0, cap) where tau solves the
    piecewise-linear equation sum x(tau) = total; the breakpoint walk
    solves it exactly.
    """
    if not cap > 0.0:
        raise ValueError(f"cap must be positive, got {cap}")
    rows, totals, shape = _rows(y, total)
    absent = np.isnan(rows)
    totals = feasible_totals(totals, rows.shape[1] - absent.sum(axis=1), cap)
    if rows.size == 0:
        return np.zeros(shape)
    return capped_simplex_rows(rows, totals, absent, cap).reshape(shape)


def project_budget_box(y, budget, cap: float = math.inf) -> np.ndarray:
    """Project each row of y onto {x: sum x <= budget, 0 <= x_i <= cap}.

    A negative or non-finite budget is a caller error.
    """
    rows, budgets, shape = _rows(y, budget)
    check_budgets(budgets)
    return budget_box_rows(rows, budgets, np.isnan(rows), cap).reshape(shape)
