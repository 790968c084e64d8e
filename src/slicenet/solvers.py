"""Distributed solvers for the slice allocation LP.

The operator-consensus method splits the variables in two copies: the
X side carries the per-link feasibility sets (airtime simplex and
licensed budget box), the Z side carries the QoS halfspaces, and a
scaled dual ties them together.  Each X update touches one link's own
prices, rates, and entitlements only; the consensus side works purely
on (Z, dual) blocks plus the per-pair QoS bounds.  That boundary is
what lets operators run the per-link updates locally without shipping
their tariffs to the coordinator.  :func:`project_links` runs every
link's two updates in one stacked call, and
``test_link_updates_take_only_local_state`` checks the boundary on it:
it takes only link-local parameters, and other links' rows never change
a link's updated row.

A link's airtime total is a share of at most 1, so the airtime cap
``a <= 1`` never binds, and :func:`project_links` runs both of every
link's updates as one water fill over a ``(2 links, slices)`` stack.

The loops hold each side pair as one stacked ``(2, links, slices)``
block, licensed then airtime: the X iterate and its projection target,
Z, the dual, the repair's allocation and the subgradient's average.
:func:`z_projection` writes Z straight into the trace block, and the
target, the dual step and the residual differences are one or two
numpy calls per stack, into buffers allocated once per solve.

A projected dual subgradient method on the same split serves as the
baseline; both report per-iteration traces of their own iterates'
revenue and constraint residuals, and both return an allocation
repaired to exact feasibility at the end.

All internal math runs in normalized units: bandwidth in multiples of
the largest pool and revenue gains scaled to a unit maximum.  A unit
penalty parameter then works across instances whose raw data spans
megahertz and micro-currency.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .problem import SlicingProblem, SlicingSolution, solution_from_arrays
from .projections import (
    capped_simplex_rows,
    check_budgets,
    feasible_totals,
    project_budget_box,
    project_capped_simplex_eq,
)

#: bound here only for the benchmark tracer's projections layer
#: (``slicebench/spans.py``), which wraps these names in this module;
#: no solver calls them
TRACED_PROJECTIONS = (project_capped_simplex_eq, project_budget_box)

REPAIR_TOL = 1e-9
REPAIR_MAX_ROUNDS = 500
#: solution flag of a repair whose QoS slack is still above ``REPAIR_TOL``
#: when it stops: the returned allocation misses a QoS floor
REPAIR_INCOMPLETE = "repair-incomplete"
#: relative gap and primal residual of :meth:`ConvergenceTrace.iterations_to_gap`
GAP_REL = 1e-2
#: bytes of iterates a solver holds before it reduces them to trace
#: columns in one pass: a long run keeps one block, not its history
TRACE_BLOCK_BYTES = 1 << 16


class SolverSettingError(ValueError):
    """A solver setting outside its domain: a caller error, which the
    command line reports as a usage error."""


def check_settings(
    *, gamma: float = 1.0, tol: float = 0.0, max_iter: int = 0, step_scale: float = 0.0
) -> None:
    """Raise :class:`SolverSettingError` unless ``gamma`` is positive and
    finite, ``tol`` and ``step_scale`` are finite and nonnegative and
    ``max_iter`` is a nonnegative integer.  Each solver checks the
    settings it takes; the defaults here pass."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise SolverSettingError(f"gamma must be positive and finite, got {gamma}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise SolverSettingError(f"tol must be finite and >= 0, got {tol}")
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 0):
        raise SolverSettingError(f"max_iter must be an integer >= 0, got {max_iter}")
    if not (math.isfinite(step_scale) and step_scale >= 0.0):
        raise SolverSettingError(f"step_scale must be finite and >= 0, got {step_scale}")


# ---------------------------------------------------------------------------
# subproblems (exact, closed form)


def project_links(y, totals, absent, out) -> np.ndarray:
    """Every link's licensed and airtime rows onto the link's own sets,
    in one stacked call, written into ``out``.

    Each link's ADMM update minimizes ``-gains . x + (gamma/2)
    ||x - z + dual||^2`` over the link's set; the linear term folds into
    the target ``y = z - dual + gains / gamma``, so the minimizer is this
    projection, exactly.

    ``y``, ``absent`` and ``out`` stack each link's licensed row over its
    airtime row, ``(2, links, slices)``, with NaN in ``y`` exactly where
    ``absent`` holds; ``totals`` stacks the budgets, which passed
    :func:`check_budgets`, over the airtime totals of
    :func:`feasible_totals`, each at most 1.  The licensed row goes onto
    ``{sum u <= budget, u >= 0}`` and the airtime row onto
    ``{sum a = total, 0 <= a <= 1}``.  Both halves take one water fill
    (``capped_simplex_rows`` with no cap): on the airtime half no share
    of the fill exceeds its total, so the cap holds but for roundoff,
    which one clamp at 1 removes; on the licensed half it is the budget's
    equality projection, and a row whose positive part fits the budget
    keeps that box instead, as
    :func:`~slicenet.projections.budget_box_rows` rules.
    """
    n, m = y.shape[1:]
    capped_simplex_rows(
        y.reshape(2 * n, m), totals.reshape(-1), absent.reshape(2 * n, m), math.inf,
        out.reshape(2 * n, m),
    )
    np.minimum(out[1], 1.0, out=out[1])
    box = np.maximum(y[0], 0.0)
    np.putmask(box, absent[0], 0.0)
    np.copyto(out[0], box, where=(box.sum(axis=1) <= totals[0])[:, None])
    return out


def z_projection(x, dual, band_ratio: float, qos_bound, out=None) -> np.ndarray:
    """Consensus update: project (X + dual) onto the QoS halfspaces.

    ``x`` and ``dual`` stack a licensed and an airtime block along their
    first axis, and so does the result, which is written into ``out``
    when given.  Every (link, slice) pair is independent, so this is a
    batch of 2-d halfspace projections onto
    ``z_u + band_ratio * z_a >= bound``.  Pairs with a nonpositive bound
    pass through unchanged.
    """
    z = np.add(x, dual, out=out)
    slack = np.maximum(qos_bound - (z[0] + band_ratio * z[1]), 0.0)
    scale = slack / (1.0 + band_ratio * band_ratio)
    z[0] += scale
    z[1] += scale * band_ratio
    return z


def dual_update(dual: np.ndarray, x, z) -> np.ndarray:
    """Scaled ascent step: accumulate the consensus gap into ``dual``,
    in place, and return it; stacked blocks update in one step."""
    dual += x
    dual -= z
    return dual


# ---------------------------------------------------------------------------
# normalized view of a problem


class _Scaled:
    """Dense normalized ``(links, slices)`` arrays for one problem.

    ``active`` masks the offered (link, slice) pairs; gains and QoS
    bounds are 0 elsewhere, and :meth:`pad` marks the other pairs NaN
    for the projections, which leave them at 0.  An allocation is a
    stacked ``(2, links, slices)`` block ``(u, a)``.

    The per-link sets are fixed for the whole solve, so the airtime
    totals and licensed budgets are checked here, once, with the
    projections' own errors; ``totals`` stacks the budgets over the
    airtime totals as the projection clips them, and ``absent`` stacks
    the pairs it leaves out, twice, as :func:`project_links` takes them.
    The solver loops then call the unchecked projection cores.
    """

    def __init__(self, problem: SlicingProblem):
        # in hertz, before a non-finite budget spreads through the scale
        check_budgets(problem.budget_hz)
        self.problem = problem
        self.active = problem.offered
        self.offered = self.active.sum(axis=1, keepdims=True)
        self.width = problem.width
        self.band_ratio = problem.unlicensed_hz / self.width
        rate = problem.rate_bps_hz[:, None]
        gain = np.where(self.active, problem.price_per_bit * rate * self.width, 0.0)
        qos = np.where(self.active, problem.min_rate_bps / (rate * self.width), 0.0)
        self.gain_scale = gain.max() if gain.size and gain.max() > 0 else 1.0
        self.gain_u = gain / self.gain_scale
        self.gain_a = self.gain_u * self.band_ratio
        self.gain = np.stack([self.gain_u, self.gain_a])
        self.qos = qos
        self.budget = problem.budget_hz / self.width
        self.xi = problem.access
        self.totals = np.stack([self.budget, feasible_totals(self.xi, self.offered[:, 0], 1.0)])
        self.absent = np.stack([~self.active, ~self.active])
        self.dim = 2 * int(self.offered.sum())
        #: the repair's step along each QoS normal, licensed then airtime
        self.normal = np.array([1.0, self.band_ratio])[:, None, None]
        #: the normal's squared length, NaN where a pair is not offered so
        #: that a repair step marks those pairs for the projections
        self.normal_sq = self.pad(1.0 + self.band_ratio * self.band_ratio)

    def pad(self, x: np.ndarray) -> np.ndarray:
        """``x`` with every pair the link does not offer set to NaN."""
        return np.where(self.active, x, np.nan)

    def objectives(self, ua: np.ndarray) -> np.ndarray:
        """True revenue of each normalized allocation ``ua[k] = (u, a)``,
        in original units: each side summed over its pairs, then added."""
        sides = (self.gain * ua).reshape(len(ua), 2, -1).sum(axis=2)
        return (sides[:, 0] + sides[:, 1]) * self.gain_scale

    def qos_shortfalls(self, ua: np.ndarray) -> np.ndarray:
        """Largest QoS floor violation of each allocation ``ua[k] = (u, a)``."""
        gap = (self.qos - (ua[:, 0] + self.band_ratio * ua[:, 1])) * self.active
        return np.maximum(gap, 0.0).max(axis=(1, 2), initial=0.0)

    def repair(self, ua: np.ndarray) -> tuple[np.ndarray, int, bool]:
        """Round an iterate ``ua = (u, a)`` to a feasible allocation.

        Alternates exact projections between the per-link sets and the
        QoS halfspaces, finishing on the per-link side so budgets and
        airtime sums hold exactly; the residual QoS slack falls below
        ``REPAIR_TOL`` for any feasible problem.  It stops at the first
        round that does not lower the largest slack, where an
        infeasible problem stalls short of its floors, and after
        ``REPAIR_MAX_ROUNDS`` rounds at most.  Returns the allocation,
        the number of rounds after the first projection, and whether
        the slack fell below the tolerance.
        """
        out = project_links(self.pad(ua), self.totals, self.absent, np.empty_like(ua))
        u, a = out
        last = math.inf
        for rounds in range(REPAIR_MAX_ROUNDS + 1):
            # the projections leave the pairs a link does not offer at 0,
            # where the QoS bound is 0 too
            slack = np.maximum(self.qos - (u + self.band_ratio * a), 0.0)
            shortfall = slack.max(initial=0.0)
            reached = shortfall <= REPAIR_TOL
            if reached or shortfall >= last or rounds == REPAIR_MAX_ROUNDS:
                return out, rounds, reached
            last = shortfall
            # NaN where a pair is not offered, as the projections take it
            scale = slack / self.normal_sq
            project_links(out + scale * self.normal, self.totals, self.absent, out)

    def repaired_solution(self, ua, trace: ConvergenceTrace, flags) -> SlicingSolution:
        """The solution of ``trace.method`` from ``ua``'s repair, which
        ``trace`` records; flagged when the repair stopped short."""
        ua, trace.repair_rounds, reached = self.repair(ua)
        if not reached:
            flags += (REPAIR_INCOMPLETE,)
        return self.to_solution(*ua, trace.method, flags)

    def to_solution(self, u, a, method, flags=()) -> SlicingSolution:
        return solution_from_arrays(
            self.problem, u * self.width, a, method, flags=flags
        )


# ---------------------------------------------------------------------------
# traces


class TraceRow(NamedTuple):
    iteration: int
    objective: float
    primal_residual: float
    dual_residual: float


def _block_len(floats_per_iteration: int, max_iter: int) -> int:
    """Iterations in one trace block, at least one."""
    return max(1, min(max_iter, TRACE_BLOCK_BYTES // (8 * floats_per_iteration)))


def _trace_rows(first: int, objective, primal, dual) -> list[TraceRow]:
    """Rows for iterations ``first, first + 1, ...`` from column values."""
    columns = (np.asarray(c).tolist() for c in (objective, primal, dual))
    return list(map(TraceRow._make, zip(range(first, first + len(objective)), *columns)))


@dataclass
class ConvergenceTrace:
    """Per-iteration record of a solver run.

    ``objective`` is the revenue of the method's own current iterate,
    not of a post-processed point: mid-run iterates may violate some
    constraints, and the residual columns say by how much.  Judging
    convergence on cleaned-up iterates would credit the cleanup, not
    the method.  The solution a solver *returns* is always repaired to
    feasibility separately.

    The solvers store each iterate and compute the columns that only
    report on it (the objective, and the subgradient's QoS shortfall
    and dual column) after the loop, a block of iterations at a time,
    with the same arithmetic per row as one iteration at a time.
    """

    method: str
    rows: list[TraceRow] = field(default_factory=list)
    converged: bool = False
    gamma_final: float = 0.0
    #: projection rounds the returned allocation's repair took after its
    #: first projection, up to the first that did not lower the QoS
    #: shortfall and at most ``REPAIR_MAX_ROUNDS``
    repair_rounds: int = 0

    @property
    def iterations(self) -> int:
        return len(self.rows)

    def iterations_to_gap(self, reference: float) -> int | None:
        """First iteration within ``GAP_REL`` of ``reference``, feasibly so.

        Both gates matter: the objective must sit within ``GAP_REL``
        relative of the reference and the iterate's primal residual
        (dimensionless, in normalized resource units) must be below
        ``GAP_REL`` as well.  An iterate whose revenue happens to match
        the optimum while its constraints are still violated has not
        converged to anything.
        """
        bar = GAP_REL * max(abs(reference), 1e-300)
        for row in self.rows:
            if abs(row.objective - reference) <= bar and row.primal_residual <= GAP_REL:
                return row.iteration
        return None

    def to_text(self) -> str:
        lines = [f"# method\t{self.method}", "iteration\tobjective\tprimal\tdual"]
        for r in self.rows:
            lines.append(
                f"{r.iteration}\t{r.objective:.10e}\t{r.primal_residual:.6e}\t{r.dual_residual:.6e}"
            )
        lines.append(f"# converged\t{self.converged}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# operator-consensus solver


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a flat vector, by the dot product
    ``np.linalg.norm`` takes."""
    return math.sqrt(v.dot(v))


def solve_admm(
    problem: SlicingProblem,
    gamma: float = 1.0,
    max_iter: int = 2000,
    tol: float = 1e-6,
) -> tuple[SlicingSolution, ConvergenceTrace]:
    """Solve the allocation LP by per-link splitting.

    Stops when both consensus residuals fall below ``tol * sqrt(dim)``
    where dim counts the split variables.  The penalty ``gamma`` is
    only the starting value: it doubles or halves whenever one residual
    outruns the other tenfold, and the scaled dual is rescaled in step
    so the underlying multipliers are preserved.  Settings outside
    their domain raise :class:`SolverSettingError`.
    """
    check_settings(gamma=gamma, max_iter=max_iter, tol=tol)
    s = _Scaled(problem)
    trace = ConvergenceTrace(method="admm", gamma_final=gamma)
    n, m = problem.n_links, problem.n_services
    if s.dim == 0:
        trace.converged = True
        return s.to_solution(np.zeros((n, m)), np.zeros((n, m)), "admm"), trace

    # every block is a stacked (licensed, airtime) pair; x, z and the
    # dual keep the pairs a link does not offer at 0, so z needs no
    # masking
    lam = np.zeros((2, n, m))
    x, target = np.empty((2, 2, n, m))
    # the gains' pull on the projection target, recomputed only when the
    # penalty changes
    gains = s.pad(s.gain)
    pull = gains / gamma
    eps = tol * math.sqrt(s.dim)
    # each block's z iterates, after the last one of the block before
    block = _block_len(2 * n * m, max_iter)
    zs = np.empty((block + 1, 2, n, m))
    zs[0, 0] = 0.0
    zs[0, 1] = np.where(s.active, s.xi[:, None] / np.maximum(s.offered, 1), 0.0)
    # x - z and z - z_prev, one flat row per side
    diffs = np.empty((4, n * m))
    gap, move = diffs.reshape(2, 2, n, m)
    gap_u, gap_a, move_u, move_a = diffs

    for first in range(1, max_iter + 1, block):
        residuals = []
        for k in range(1, min(block, max_iter + 1 - first) + 1):
            z_prev = zs[k - 1]
            # both updates' targets, z - dual + gains / gamma
            np.subtract(z_prev, lam, out=target)
            target += pull
            project_links(target, s.totals, s.absent, x)
            z = z_projection(x, lam, s.band_ratio, s.qos, zs[k])
            dual_update(lam, x, z)

            np.subtract(x, z, out=gap)
            np.subtract(z, z_prev, out=move)
            primal = math.hypot(_norm(gap_u), _norm(gap_a))
            dual = gamma * math.hypot(_norm(move_u), _norm(move_a))
            residuals.append((primal, dual))
            if primal <= eps and dual <= eps:
                trace.converged = True
                break
            if primal > 10.0 * dual and dual > 0:
                gamma *= 2.0
                lam /= 2.0
                np.divide(gains, gamma, out=pull)
            elif dual > 10.0 * primal and primal > 0:
                gamma /= 2.0
                lam *= 2.0
                np.divide(gains, gamma, out=pull)
        done = len(residuals)
        primals, duals = zip(*residuals)
        trace.rows += _trace_rows(first, s.objectives(zs[1 : done + 1]), primals, duals)
        zs[0] = zs[done]
        if trace.converged:
            break

    trace.gamma_final = gamma
    flags = () if trace.converged else ("max-iterations",)
    return s.repaired_solution(zs[0], trace, flags), trace


# ---------------------------------------------------------------------------
# dual subgradient baseline


def solve_subgradient(
    problem: SlicingProblem,
    max_iter: int = 500,
    step_scale: float = 1.0,
) -> tuple[SlicingSolution, ConvergenceTrace]:
    """Projected dual subgradient on the QoS floors.

    The QoS constraints are priced into the objective; the priced
    problem separates per link, where the maximizer puts the link's
    whole airtime share, and its whole licensed budget where that pays,
    on each side's best-paying slice.  Steps shrink as ``1/sqrt(t)`` and
    the reported allocation is the repaired running average of the
    primal iterates.  A zero ``step_scale`` freezes the multipliers, so
    the trace objective stays constant; that degenerate case anchors the
    tests.  Settings outside their domain raise
    :class:`SolverSettingError`.
    """
    check_settings(max_iter=max_iter, step_scale=step_scale)
    s = _Scaled(problem)
    trace = ConvergenceTrace(method="subgradient")
    n, m = problem.n_links, problem.n_services
    if s.dim == 0:
        trace.converged = True
        return s.to_solution(np.zeros((n, m)), np.zeros((n, m)), "subgradient"), trace

    # A greedy fill of the airtime simplex gives the offered slice ranked
    # r the share clip(xi - r, 0, 1); with xi <= 1 that is xi on the top
    # slice alone.  So each side of the priced maximizer picks one
    # column of a coefficient block whose pairs a link does not offer
    # are -inf, and whose spare first column is 0 on the licensed side (a
    # link whose best coefficient is not positive draws nothing: argmax
    # takes the first maximum) and -inf on the airtime side.  The pick
    # indexes a table of every row an iterate can take, the spare
    # column's row all 0.
    coef = np.empty((2, n, m + 1))
    coef[0, :, 0], coef[1, :, 0] = 0.0, -np.inf
    slopes = coef[:, :, 1:]
    gains = np.where(s.active, s.gain, -np.inf)
    table = np.zeros((2, n, m + 1, m))
    diag = np.arange(m)
    table[:, :, diag + 1, diag] = np.stack([s.budget, np.clip(s.xi, 0.0, 1.0)])[:, :, None]
    table = table.reshape(-1, m)
    offsets = np.arange(0, 2 * n * (m + 1), m + 1).reshape(2, n)
    pick = np.empty((2, n), dtype=np.intp)
    lam = np.zeros((n, m))
    # this iteration's (u, a), overwritten in place
    x = np.empty((2, n, m))
    xu, xa = x
    # the priced multipliers, the multiplier step and the average's step,
    # written in place each iteration; the slopes are written from a
    # contiguous block, which costs less than updating them in place
    priced = np.empty((2, n, m))
    shift = np.empty((n, m))
    move = np.empty((2, n, m))
    # running averages and slacks of the block's iterations, reduced to
    # trace columns after it; the pairs a link does not offer stay at 0
    # in x, the slack and the multipliers
    block = _block_len(3 * n * m, max_iter)
    avgs, slacks, steps = np.empty((block, 2, n, m)), np.empty((block, n, m)), np.empty(block)
    avg = np.zeros((2, n, m))
    for first in range(1, max_iter + 1, block):
        its = range(first, min(first + block, max_iter + 1))
        for k, it in enumerate(its):
            np.multiply(lam, s.normal, out=priced)
            np.add(priced, gains, out=slopes)
            coef.argmax(axis=2, out=pick)
            pick += offsets
            table.take(pick, axis=0, out=x)
            np.subtract(x, avg, out=move)
            move /= it
            avg = np.add(avg, move, out=avgs[k])

            np.multiply(xa, s.band_ratio, out=shift)
            shift += xu
            slack = np.subtract(shift, s.qos, out=slacks[k])
            steps[k] = step = step_scale / math.sqrt(it)
            np.multiply(slack, step, out=shift)
            np.subtract(lam, shift, out=shift)
            np.maximum(0.0, shift, out=lam)
        done = len(its)
        trace.rows += _trace_rows(
            first,
            s.objectives(avgs[:done]),
            s.qos_shortfalls(avgs[:done]),
            steps[:done] * np.abs(slacks[:done]).max(axis=(1, 2)),
        )

    trace.converged = True
    return s.repaired_solution(avg, trace, ("ergodic-average",)), trace
