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
as exactly 0.  A plain vector is one row.
"""

from __future__ import annotations

import math

import numpy as np


def _rows(y, total):
    """(rows, m) values and (rows,) totals from stacked or plain input."""
    y = np.asarray(y, dtype=float)
    totals = np.empty(y.shape[:-1])
    totals[...] = total
    return y.reshape(-1, y.shape[-1]), totals.reshape(-1)


def _check_totals(totals, count, cap: float) -> np.ndarray:
    """Each row's capacity ``count * cap``; raise for an empty set."""
    if math.isfinite(cap):
        capacity = count * cap
    else:
        capacity = np.where(count > 0, np.inf, 0.0)
    slack = np.where(count > 0, 1e-9, 1e-12)
    bad = (totals < -1e-12) | (totals > capacity + slack)
    if bad.any():
        k = int(np.argmax(bad))
        if totals[k] < -1e-12:
            raise ValueError(f"negative simplex total {totals[k]}")
        if count[k] == 0:
            raise ValueError("cannot distribute a positive total over nothing")
        raise ValueError(f"total {totals[k]} exceeds capacity {capacity[k]}")
    return capacity


def _water_fill(y: np.ndarray, total: np.ndarray, absent: np.ndarray) -> np.ndarray:
    """Project each row onto {x >= 0, sum x = total} by water-filling."""
    m = y.shape[1]
    # absent entries sort last as -inf and never satisfy the condition
    u = np.sort(np.where(absent, -np.inf, y), axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    with np.errstate(invalid="ignore"):
        cond = u - (css - total[:, None]) / np.arange(1, m + 1) > 0
    # the largest entry always qualifies in exact arithmetic; a total
    # below its roundoff can fail the test and must not drop it
    k = 1 + np.max(np.where(cond, np.arange(m), 0), axis=1)
    tau = (css[np.arange(len(y)), k - 1] - total) / k
    empty = absent | (total <= 0.0)[:, None]
    return np.where(empty, 0.0, np.maximum(y - tau[:, None], 0.0))


def _breakpoint_walk(y, total, absent, cap: float) -> np.ndarray:
    """Solve sum clip(y - tau, 0, cap) = total for tau, row by row.

    The mass is piecewise linear and nonincreasing in tau, with
    breakpoints {y - cap, y} over a row's present entries; absent ones
    give NaN breakpoints, which sort last and never count.  The mass is
    evaluated at every breakpoint at once.  The breakpoints whose mass
    exceeds the total form a prefix; the segment leaving it holds tau,
    found by interpolation, and a row with an empty prefix takes its
    lowest breakpoint.
    """
    points = np.sort(np.concatenate([y - cap, y], axis=1), axis=1)
    d = np.where(absent, -np.inf, y)[:, None, :] - points[:, :, None]
    mass = np.minimum(np.maximum(d, 0.0), cap).sum(axis=2)
    j = np.count_nonzero(mass > total[:, None], axis=1)
    r = np.arange(len(y))
    a, b = points[r, j - 1], points[r, j]
    ma, mb = mass[r, j - 1], mass[r, j]
    with np.errstate(invalid="ignore", divide="ignore"):
        tau = np.where(j == 0, points[:, 0], a + (ma - total) * (b - a) / (ma - mb))
    return np.where(absent, 0.0, np.clip(y - tau[:, None], 0.0, cap))


def _equality(y, total, absent, cap: float) -> np.ndarray:
    """Rows onto {sum x = total, 0 <= x <= cap}, totals already feasible."""
    if math.isfinite(cap):
        return _breakpoint_walk(y, total, absent, cap)
    return _water_fill(y, total, absent)


def project_capped_simplex_eq(y, total, cap: float = 1.0) -> np.ndarray:
    """Project each row of y onto {x: sum x = total, 0 <= x_i <= cap}.

    The feasible set is empty unless 0 <= total <= n*cap, n counting
    the row's present entries; that is a caller error.  The projection
    is x_i = clip(y_i - tau, 0, cap) where tau solves the
    piecewise-linear equation sum x(tau) = total; the breakpoint walk
    solves it exactly.
    """
    rows, totals = _rows(y, total)
    absent = np.isnan(rows)
    capacity = _check_totals(totals, rows.shape[1] - absent.sum(axis=1), cap)
    totals = np.minimum(np.maximum(totals, 0.0), capacity)
    if rows.size == 0:
        return np.zeros(np.shape(y))
    return _equality(rows, totals, absent, cap).reshape(np.shape(y))


def project_budget_box(y, budget, cap: float = math.inf) -> np.ndarray:
    """Project each row of y onto {x: sum x <= budget, 0 <= x_i <= cap}.

    When the box projection already fits the budget it is the answer;
    otherwise the budget binds and the equality projection applies.
    """
    rows, budgets = _rows(y, budget)
    if (budgets < 0).any():
        raise ValueError(f"negative budget {budgets.min()}")
    absent = np.isnan(rows)
    inside = np.where(absent, 0.0, np.clip(rows, 0.0, cap if math.isfinite(cap) else None))
    over = inside.sum(axis=1) > budgets
    if over.any():
        # a binding budget is below the row's capacity, so the equality
        # projection is feasible; it is computed for every row and kept
        # where the budget binds
        inside = np.where(over[:, None], _equality(rows, budgets, absent, cap), inside)
    return inside.reshape(np.shape(y))
