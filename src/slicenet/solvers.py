"""Distributed solvers for the slice allocation LP.

The operator-consensus method splits the variables in two copies: the
X side carries the per-link feasibility sets (airtime simplex and
licensed budget box), the Z side carries the QoS halfspaces, and a
scaled dual ties them together.  Each X update touches one link's own
prices, rates, and entitlements only; the consensus side works purely
on (Z, dual) blocks plus the per-pair QoS bounds.  That boundary is
what lets operators run the per-link updates locally without shipping
their tariffs to the coordinator.  Every link's update runs in one
batched call of :func:`alpha_subproblem` and :func:`w_subproblem` over
dense ``(links, slices)`` rows, and ``test_link_updates_take_only_local_state``
checks the boundary on these functions, so on the update that runs:
each takes only link-local parameters, and other links' rows never
change a link's updated row.

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

import numpy as np

from .problem import SlicingProblem, SlicingSolution, solution_from_arrays
from .projections import (
    budget_box_rows,
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


def alpha_subproblem(z, dual, gamma: float, total, absent, gains) -> np.ndarray:
    """Each link's airtime split against the current consensus point.

    Minimizes ``-gains . a + (gamma/2) ||a - z + dual||^2`` over the
    capped simplex ``{sum a = total, 0 <= a <= 1}``; the linear term
    folds into the projection target, so the minimizer is exact.  One
    row per link, ``total`` as :func:`feasible_totals` clips it, and
    ``absent`` (NaN gains) marking the slices a link does not offer,
    whose share stays 0.
    """
    return capped_simplex_rows(z - dual + gains / gamma, total, absent, 1.0)


def w_subproblem(z, dual, gamma: float, budget, absent, gains) -> np.ndarray:
    """Each link's licensed draw against the current consensus point.

    Same quadratic form and rows as :func:`alpha_subproblem`, minimized
    over ``{sum u <= budget, u >= 0}`` with budgets that passed
    :func:`check_budgets`.
    """
    return budget_box_rows(z - dual + gains / gamma, budget, absent, math.inf)


def z_projection(u_block, alpha_block, dual_u, dual_alpha, band_ratio: float, qos_bound):
    """Consensus update: project (X + dual) onto the QoS halfspaces.

    Every (link, slice) pair is independent, so this is a batch of 2-d
    halfspace projections onto ``z_u + band_ratio * z_a >= bound``.
    Pairs with a nonpositive bound pass through unchanged.
    """
    p = np.asarray(u_block, dtype=float) + np.asarray(dual_u, dtype=float)
    q = np.asarray(alpha_block, dtype=float) + np.asarray(dual_alpha, dtype=float)
    bound = np.asarray(qos_bound, dtype=float)
    slack = np.maximum(bound - (p + band_ratio * q), 0.0)
    scale = slack / (1.0 + band_ratio * band_ratio)
    return p + scale, q + scale * band_ratio


def dual_update(dual: np.ndarray, x, z) -> np.ndarray:
    """Scaled ascent step: accumulate the consensus gap into ``dual``,
    in place, and return it."""
    dual += x
    dual -= z
    return dual


# ---------------------------------------------------------------------------
# normalized view of a problem


class _Scaled:
    """Dense normalized ``(links, slices)`` arrays for one problem.

    ``active`` masks the offered (link, slice) pairs; gains and QoS
    bounds are 0 elsewhere, and :meth:`pad` marks the other pairs NaN
    for the projections, which leave them at 0.

    The per-link sets are fixed for the whole solve, so the airtime
    totals and licensed budgets are checked here, once, with the
    projections' own errors; ``xi_total`` holds the airtime totals as
    the projection clips them, and ``absent`` the pairs it leaves out.
    The solver loops then call the unchecked projection cores.
    """

    def __init__(self, problem: SlicingProblem):
        # in hertz, before a non-finite budget spreads through the scale
        check_budgets(problem.budget_hz)
        self.problem = problem
        self.active = problem.offered
        self.absent = ~self.active
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
        self.xi_total = feasible_totals(self.xi, self.offered[:, 0], 1.0)
        self.dim = 2 * int(self.offered.sum())

    def pad(self, x: np.ndarray) -> np.ndarray:
        """``x`` with every pair the link does not offer set to NaN."""
        return np.where(self.active, x, np.nan)

    def objectives(self, ua: np.ndarray) -> np.ndarray:
        """True revenue of each normalized allocation ``ua[k] = (u, a)``,
        in original units: each side summed over its pairs, then added."""
        sides = (self.gain * ua).reshape(len(ua), 2, -1).sum(axis=2)
        return (sides[:, 0] + sides[:, 1]) * self.gain_scale

    def project_local(self, u: np.ndarray, a: np.ndarray):
        """Exact projection onto every link's own feasibility sets."""
        pa = capped_simplex_rows(self.pad(a), self.xi_total, self.absent, 1.0)
        return budget_box_rows(self.pad(u), self.budget, self.absent, math.inf), pa

    def qos_shortfalls(self, ua: np.ndarray) -> np.ndarray:
        """Largest QoS floor violation of each allocation ``ua[k] = (u, a)``."""
        gap = (self.qos - (ua[:, 0] + self.band_ratio * ua[:, 1])) * self.active
        return np.maximum(gap, 0.0).max(axis=(1, 2), initial=0.0)

    def repair(self, u: np.ndarray, a: np.ndarray):
        """Round an iterate to a feasible allocation.

        Alternates exact projections between the per-link sets and the
        QoS halfspaces, at most ``REPAIR_MAX_ROUNDS`` times, finishing on
        the per-link side so budgets and airtime sums hold exactly; the
        residual QoS slack falls below ``REPAIR_TOL`` for any feasible
        problem.
        """
        u, a = self.project_local(u, a)
        denom = 1.0 + self.band_ratio * self.band_ratio
        for _ in range(REPAIR_MAX_ROUNDS):
            # the projections leave the pairs a link does not offer at 0,
            # where the QoS bound is 0 too
            slack = np.maximum(self.qos - (u + self.band_ratio * a), 0.0)
            if slack.max(initial=0.0) <= REPAIR_TOL:
                break
            scale = slack / denom
            u, a = self.project_local(u + scale, a + scale * self.band_ratio)
        return u, a

    def to_solution(self, u, a, method, flags=()) -> SlicingSolution:
        return solution_from_arrays(
            self.problem, u * self.width, a, method, flags=flags
        )


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True, slots=True)
class TraceRow:
    iteration: int
    objective: float
    primal_residual: float
    dual_residual: float


def _block_len(floats_per_iteration: int, max_iter: int) -> int:
    """Iterations in one trace block, at least one."""
    return max(1, min(max_iter, TRACE_BLOCK_BYTES // (8 * floats_per_iteration)))


def _trace_rows(first: int, objective, primal, dual) -> list[TraceRow]:
    """Rows for iterations ``first, first + 1, ...`` from column values."""
    return [
        TraceRow(it, o, p, d)
        for it, o, p, d in zip(
            range(first, first + len(objective)),
            np.asarray(objective).tolist(),
            np.asarray(primal).tolist(),
            np.asarray(dual).tolist(),
        )
    ]


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


def _norm(d: np.ndarray) -> float:
    """Euclidean norm, by the dot product ``np.linalg.norm`` takes."""
    d = d.ravel()
    return math.sqrt(d.dot(d))


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

    zu = np.zeros((n, m))
    za = np.where(s.active, s.xi[:, None] / np.maximum(s.offered, 1), 0.0)
    lu, la = np.zeros((n, m)), np.zeros((n, m))
    gain_u, gain_a = s.pad(s.gain_u), s.pad(s.gain_a)
    eps = tol * math.sqrt(s.dim)
    block = _block_len(2 * n * m, max_iter)
    zs = np.empty((block, 2, n, m))

    for first in range(1, max_iter + 1, block):
        residuals = []
        for k in range(min(block, max_iter + 1 - first)):
            xa = alpha_subproblem(za, la, gamma, s.xi_total, s.absent, gain_a)
            xu = w_subproblem(zu, lu, gamma, s.budget, s.absent, gain_u)
            zu_prev, za_prev = zu, za
            # every pair a link does not offer stays at 0 in x, z and
            # the dual, so z needs no masking
            zu, za = z_projection(xu, xa, lu, la, s.band_ratio, s.qos)
            zs[k, 0], zs[k, 1] = zu, za
            dual_update(lu, xu, zu)
            dual_update(la, xa, za)

            primal = math.hypot(_norm(xu - zu), _norm(xa - za))
            dual = gamma * math.hypot(_norm(zu - zu_prev), _norm(za - za_prev))
            residuals.append((primal, dual))
            if primal <= eps and dual <= eps:
                trace.converged = True
                break
            if primal > 10.0 * dual and dual > 0:
                gamma *= 2.0
                lu /= 2.0
                la /= 2.0
            elif dual > 10.0 * primal and primal > 0:
                gamma /= 2.0
                lu *= 2.0
                la *= 2.0
        primals, duals = zip(*residuals)
        trace.rows += _trace_rows(first, s.objectives(zs[: len(residuals)]), primals, duals)
        if trace.converged:
            break

    trace.gamma_final = gamma
    ru, ra = s.repair(zu, za)
    flags = () if trace.converged else ("max-iterations",)
    return s.to_solution(ru, ra, "admm", flags), trace


# ---------------------------------------------------------------------------
# dual subgradient baseline


def solve_subgradient(
    problem: SlicingProblem,
    max_iter: int = 500,
    step_scale: float = 1.0,
) -> tuple[SlicingSolution, ConvergenceTrace]:
    """Projected dual subgradient on the QoS floors.

    The QoS constraints are priced into the objective; the priced
    problem separates per link, where the maximizer is a greedy fill of
    the airtime simplex and an all-in licensed draw on the best-paying
    slice.  Steps shrink as ``1/sqrt(t)`` and the reported allocation
    is the repaired running average of the primal iterates.  A zero
    ``step_scale`` freezes the multipliers, so the trace objective
    stays constant; that degenerate case anchors the tests.  Settings
    outside their domain raise :class:`SolverSettingError`.
    """
    check_settings(max_iter=max_iter, step_scale=step_scale)
    s = _Scaled(problem)
    trace = ConvergenceTrace(method="subgradient")
    n, m = problem.n_links, problem.n_services
    if s.dim == 0:
        trace.converged = True
        return s.to_solution(np.zeros((n, m)), np.zeros((n, m)), "subgradient"), trace

    # The priced airtime maximizer fills slices best-paying first: the
    # offered slice ranked r gets clip(xi - r, 0, 1), ranked by a stable
    # sort of the negated priced gains (NaN where not offered, sorting
    # last).  The licensed draw goes all-in on the best-paying slice.
    ranks = np.arange(m)
    fill = np.where(ranks < s.offered, np.clip(s.xi[:, None] - ranks, 0.0, 1.0), 0.0)
    neg_gain_a = -s.pad(s.gain_a)
    gain_u = np.where(s.active, s.gain_u, -np.inf)
    links = np.arange(n)[:, None]
    starts = np.arange(0, n * m, m)
    lam = np.zeros((n, m))
    # this iteration's (u, a), overwritten in place: the airtime fill
    # writes every entry, the licensed draw one per link
    x = np.zeros((2, n, m))
    xu, xa = x
    xu_flat = xu.reshape(-1)
    # running averages and slacks of the block's iterations, reduced to
    # trace columns after it; the pairs a link does not offer stay at 0
    # in x, the slack and the multipliers
    block = _block_len(3 * n * m, max_iter)
    avgs, slacks, steps = np.empty((block, 2, n, m)), np.empty((block, n, m)), np.empty(block)
    avg = np.zeros((2, n, m))
    for first in range(1, max_iter + 1, block):
        its = range(first, min(first + block, max_iter + 1))
        for k, it in enumerate(its):
            rank = (neg_gain_a - lam * s.band_ratio).argsort(axis=1, kind="stable")
            xa[links, rank] = fill
            coef_u = gain_u + lam
            best = coef_u.argmax(axis=1) + starts
            xu.fill(0.0)
            xu_flat[best] = np.where(coef_u.take(best) > 0, s.budget, 0.0)
            avg = np.add(avg, (x - avg) / it, out=avgs[k])

            slack = np.subtract(xu + s.band_ratio * xa, s.qos, out=slacks[k])
            steps[k] = step = step_scale / math.sqrt(it)
            lam = np.maximum(0.0, lam - step * slack)
        done = len(its)
        trace.rows += _trace_rows(
            first,
            s.objectives(avgs[:done]),
            s.qos_shortfalls(avgs[:done]),
            steps[:done] * np.abs(slacks[:done]).max(axis=(1, 2)),
        )

    ru, ra = s.repair(avg[0], avg[1])
    trace.converged = True
    return s.to_solution(ru, ra, "subgradient", ("ergodic-average",)), trace
