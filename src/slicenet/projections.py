"""Exact Euclidean projections used by the per-link solvers.

Every routine here is closed-form (sorting and water fills, no
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

One algorithm serves every cap, the water fill (Duchi et al., ICML
2008).  A binding cap fixes the entries above it at the cap and
refills the others with what is left of the total, until none is over.
That is exact: capping takes mass away, so the water level only falls
and a fixed entry stays above the cap; each refill fixes at least one
more entry, so a row of ``m`` entries takes at most ``m`` refills.

The solvers call these on a few links at a time, thousands of times
per solve, so the arithmetic is written for few numpy calls: row-wise
lookups index the flattened arrays, results are written in place (into
the caller's ``out`` buffer when given), and clamps are ``maximum`` and
``minimum`` with their arguments in the order that gives ``np.clip``'s
results bit for bit, signed zeros included.  Those clamps keep NaN, so
the absent entries of a result are zeroed by one ``putmask``.

Each public projection is its input checks followed by an unchecked
core (:func:`capped_simplex_rows`, :func:`budget_box_rows`) that holds
the only copy of its math.  The solvers' totals, budgets and masks are
fixed for the whole solve, so ``solvers._Scaled`` checks them once
(:func:`feasible_totals`, :func:`check_budgets`).  An airtime total is
at most 1, so the solvers' ADMM step and repair project every link's
licensed and airtime rows in one uncapped water fill
(``solvers.project_links``), and no solver runs a finite cap.  The
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


def _rows(y, total, cap: float):
    """(rows, m) values, (rows,) totals and the input's shape, for either
    public projection; raise for a cap that is not positive, NaN included."""
    if not cap > 0.0:
        raise ValueError(f"cap must be positive, got {cap}")
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


def capped_simplex_rows(y, total, absent, cap: float, out=None) -> np.ndarray:
    """Rows onto {sum x = total, 0 <= x <= cap}, unchecked.

    ``y`` is ``(rows, m)`` with NaN exactly where ``absent`` holds, and
    ``total`` comes from :func:`feasible_totals`.  The rows are written
    into ``out`` when it is given; it must not overlap ``y``."""
    x = _water_fill(y, total, absent, out)
    if math.isinf(cap):
        return x
    # a row that no refill changes keeps its first fill bit for bit
    fixed, free, over = np.zeros(y.shape, bool), y.copy(), x > cap
    while np.count_nonzero(over):
        fixed |= over
        np.putmask(free, over, np.nan)
        _water_fill(free, total - cap * fixed.sum(axis=1), absent | fixed, x)
        over = x > cap
    np.putmask(x, fixed, cap)
    return x


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
    piecewise-linear equation sum x(tau) = total; the water fill and
    its refills solve it exactly.
    """
    rows, totals, shape = _rows(y, total, cap)
    absent = np.isnan(rows)
    totals = feasible_totals(totals, rows.shape[1] - absent.sum(axis=1), cap)
    if rows.size == 0:
        return np.zeros(shape)
    return capped_simplex_rows(rows, totals, absent, cap).reshape(shape)


def project_budget_box(y, budget, cap: float = math.inf) -> np.ndarray:
    """Project each row of y onto {x: sum x <= budget, 0 <= x_i <= cap}.

    A negative or non-finite budget is a caller error, and so is a cap
    that is not positive.
    """
    rows, budgets, shape = _rows(y, budget, cap)
    check_budgets(budgets)
    return budget_box_rows(rows, budgets, np.isnan(rows), cap).reshape(shape)
