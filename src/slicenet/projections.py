"""Exact Euclidean projections used by the per-link solvers.

Every routine here is closed-form (water fills, no iterative
optimization), so projections are exact to floating-point
roundoff.  That matters: the distributed solver's convergence proofs
assume its subproblems are solved exactly, and the test suite holds
these functions to brute-force grids.

Both projections work on stacked rows: the last axis of ``y`` is one
row's coordinates, every leading axis indexes independent rows, and
the row totals broadcast over those leading axes.  A NaN entry is not
part of its row's set (a slice the link does not offer); it comes back
as exactly 0.  A plain vector is one row.  Totals and budgets must be
finite, and so must each row's absolute entries and total summed.

One algorithm serves every cap, the water fill (Duchi et al., ICML
2008).  A binding cap fixes the entries above it at the cap and
refills the others with what is left of the total, until none is over.
That is exact: capping takes mass away, so the water level only falls
and a fixed entry stays above the cap; each refill fixes at least one
more entry, so a row of ``m`` entries takes at most ``m`` refills.

The solvers call these on every link at once, up to hundreds of rows
of a few slices, thousands of times per solve, so the arithmetic is
written for few numpy calls, all elementwise: the water fill works
column by column, results are written in place (into the caller's
``out`` buffer when given), and clamps are ``maximum`` and
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
def _network(m: int) -> tuple:
    """Compare-exchange pairs that sort ``m`` entries: an odd-even
    transposition network (Knuth, TAOCP vol. 3, sec. 5.3.4)."""
    return tuple((i, i + 1) for r in range(m) for i in range(r % 2, m - 1, 2))


def _rows(y, total, cap: float):
    """(rows, m) values, (rows,) totals and the input's shape, for either
    public projection; raise for a cap that is not positive, NaN included,
    and for a row whose absolute entries and total, which bound every
    running sum of the water fill, do not sum to a finite value."""
    if not cap > 0.0:
        raise ValueError(f"cap must be positive, got {cap}")
    y = np.asarray(y, dtype=float)
    totals = np.empty(y.shape[:-1])
    totals[...] = total
    rows, totals = y.reshape(-1, y.shape[-1]), totals.reshape(-1)
    with np.errstate(over="ignore"):
        size = np.nansum(np.abs(rows), axis=1) + np.nan_to_num(np.abs(totals), posinf=0.0)
    if not (size <= _LARGEST).all():
        raise ValueError("a row's absolute entries and total do not sum to a finite value")
    return rows, totals, y.shape


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
    """Project each row onto {x >= 0, sum x = total} by water-filling.

    Each step is elementwise over a column, so many short rows cost a
    few calls per column, not a sort and reductions along every row.  A
    network sorts the columns of ``-y`` ascending, the absent entries
    (NaN) last: those never qualify and raise no floating-point warning.
    The negated level ``q = -tau`` is the last candidate ``(total +
    running sum) / k`` above the k-th sorted entry, or else the first,
    which qualifies in exact arithmetic whatever roundoff does to a tiny
    total.  Negation, left-fold sums and, with gradual underflow, ``a >
    b`` for ``a - b > 0`` are exact, so results have the bits of a sort,
    ``cumsum`` and ``y - tau``: ``y + q`` differs only in the sign of a
    zero, which the clamp drops.
    """
    s = list(-y.T)
    for i, j in _network(y.shape[1]):
        s[i], s[j] = np.fmin(s[i], s[j]), np.maximum(s[i], s[j])
    run = s[0]
    q = run + total
    for k in range(1, len(s)):
        run = run + s[k]
        level = (run + total) / (k + 1)
        np.copyto(q, level, where=level > s[k])
    x = np.add(y, q[:, None], out=out)
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
