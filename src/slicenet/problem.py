"""Slice resource allocation as a linear program.

The decision variables live per (link, slice) pair: ``u`` is licensed
bandwidth in Hz drawn from the pooled operator budgets, ``alpha`` is
the fraction of the link's unlicensed airtime entitlement devoted to
the slice.  Revenue is linear in delivered throughput, so the welfare
maximization is an LP, and :func:`solve_lp_oracle` solves it exactly.
The distributed solver in :mod:`slicenet.solvers` is checked against
that oracle.

A problem's numeric fields and a solution's allocation are read-only
numpy arrays, per link, per member or ``(links, slices)``, each copied
once when the problem or solution is made so that no caller aliases it.

The LP is held as its nonzeros (:class:`LPModel`), never as dense
matrices.  :func:`solve_lp_stack` solves several problems in one HiGHS
call by offsetting their models into one block-diagonal matrix; the
oracle is its one-problem case.  HiGHS is reached through scipy's
public ``milp`` with no integer variables: one sparse CSC matrix
``lo <= A x <= hi`` holds every inequality row (``lo = -inf``) and
then every equality row (``lo = hi``), the row order ``linprog`` would
build from the same models, so the solutions are the ones ``linprog``
returns, bit for bit, without its per-call input handling.  scipy is
imported inside that one call, not with this module, so a command or
library call that solves no LP never loads it.

Three deployment variants share one problem shape: ``s1`` zeroes the
licensed budgets (unlicensed only), ``s2`` zeroes the airtime
entitlements (licensed only), and ``s3`` keeps both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

from .scenario import Scenario

if TYPE_CHECKING:
    from .mboe import AccessEstimate

VARIANTS = ("s1", "s2", "s3")

#: Constraint families reported when a problem has no feasible point.
FAMILY_QOS = "qos"
FAMILY_ACCESS = "access"
FAMILY_BUDGET = "budget"


class InfeasibleProblem(ValueError):
    """No allocation satisfies every constraint.

    ``family`` names the constraint family whose removal restores
    feasibility, which in practice pins the blame: with the QoS floors
    gone the remaining polytope always contains the zero allocation.
    """

    def __init__(self, family: str, message: str):
        super().__init__(f"{family}: {message}")
        self.family = family
        self.message = message


def _frozen(value, dtype, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A read-only ``shape`` array copied from ``value``: the copy keeps
    any caller's array from aliasing the field."""
    a = np.array(value, dtype=dtype)
    if a.size == 0 and math.prod(shape) == 0:
        a = a.reshape(shape)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SlicingProblem:
    """Immutable LP data, one row per link, one column per slice.

    The numeric fields are read-only numpy arrays, copied once from any
    array-like: ``rate_bps_hz``, ``access`` and ``budget_hz`` hold one
    entry per link, ``mno_budget_hz`` one per member, and ``offered``
    (bool), ``min_rate_bps`` and ``price_per_bit`` are ``(links,
    slices)``.  The labels (``link_ids``, ``link_owner``,
    ``service_ids``, ``members``, ``ssg``) stay tuples.  Problems compare
    by identity; compare their fields with ``np.array_equal``.

    ``budget_hz`` holds the licensed cap per link: the summed bandwidth
    of every operator that pools spectrum for at least one slice the
    link's owner participates in.

    ``offered[k, l]`` marks the (link, slice) pairs that carry
    variables at all; pairs outside an owner's sharing groups are
    pinned to zero.
    """

    link_ids: tuple[str, ...]
    link_owner: tuple[int, ...]
    service_ids: tuple[int, ...]
    members: tuple[int, ...]
    mno_budget_hz: np.ndarray
    rate_bps_hz: np.ndarray
    access: np.ndarray
    budget_hz: np.ndarray
    offered: np.ndarray
    min_rate_bps: np.ndarray
    price_per_bit: np.ndarray
    unlicensed_hz: float
    ssg: tuple[frozenset[int], ...]
    variant: str = "s3"

    def __post_init__(self):
        n, m = len(self.link_ids), len(self.service_ids)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if len(self.link_owner) != n:
            raise ValueError("link_owner must have one entry per link")
        if len(self.ssg) != m:
            raise ValueError("one sharing group per service required")
        for name, dtype, shape in (
            ("mno_budget_hz", float, (len(self.members),)),
            ("rate_bps_hz", float, (n,)),
            ("access", float, (n,)),
            ("budget_hz", float, (n,)),
            ("offered", bool, (n, m)),
            ("min_rate_bps", float, (n, m)),
            ("price_per_bit", float, (n, m)),
        ):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype, shape, name))
        owned = np.equal.outer(self.link_owner, self.members).any(axis=1)
        in_range = (self.access >= 0.0) & (self.access <= 1.0)
        for bad, what in (
            (~owned, "is owned by a non-member"),
            (~in_range, "has an airtime share outside [0, 1]"),
            (self.rate_bps_hz <= 0, "has nonpositive rate"),
            ((self.access > 0) & ~self.offered.any(axis=1), "holds airtime but offers no slice"),
        ):
            if bad.any():
                raise ValueError(f"link {self.link_ids[bad.argmax()]} {what}")

    # -- sizes -----------------------------------------------------------

    @property
    def n_links(self) -> int:
        return len(self.link_ids)

    @property
    def n_services(self) -> int:
        return len(self.service_ids)

    @property
    def rows(self) -> np.ndarray:
        """The link of each offered pair, in link order: the LP's column order."""
        return np.nonzero(self.offered)[0]

    @property
    def cols(self) -> np.ndarray:
        """The slice of each offered pair, in the order of :attr:`rows`."""
        return np.nonzero(self.offered)[1]

    @property
    def width(self) -> float:
        """The bandwidth scale that normalizes hertz in the solvers and in
        violation reports: the largest of the unlicensed band, any budget
        and 1 Hz."""
        return max(
            self.unlicensed_hz,
            max(self.budget_hz.tolist(), default=0.0),
            max(self.mno_budget_hz.tolist(), default=0.0),
            1.0,
        )

    # -- coalition restriction -------------------------------------------

    def restrict(self, coalition) -> SlicingProblem:
        """The same market limited to ``coalition``.

        Only the coalition's links remain, sharing groups shrink to
        coalition members, and each link's licensed cap is rebuilt from
        the budgets of the operators still pooling for it.  A link
        whose owner no longer shares any slice is carried along with
        zero entitlements so per-link reports keep their shape.
        """
        coalition = frozenset(coalition)
        if not coalition:
            raise ValueError("empty coalition")
        if not coalition <= set(self.members):
            raise ValueError(f"coalition {sorted(coalition)} not among members")
        ssg = tuple(g & coalition for g in self.ssg)
        joined = np.array([j in coalition for j in self.members])
        # pools[l, j]: member j pools spectrum for slice l
        pools = np.array(
            [[j in g for j in self.members] for g in ssg], dtype=bool
        ).reshape(self.n_services, len(self.members))
        owned = np.equal.outer(self.link_owner, self.members)
        keep = owned @ joined
        offered = (self.offered & (owned @ pools.T))[keep]
        donors = np.where(offered @ pools, self.mno_budget_hz, 0.0)
        return replace(
            self,
            link_ids=tuple(compress(self.link_ids, keep)),
            link_owner=tuple(compress(self.link_owner, keep)),
            members=tuple(compress(self.members, joined)),
            mno_budget_hz=self.mno_budget_hz[joined],
            rate_bps_hz=self.rate_bps_hz[keep],
            access=np.where(offered.any(axis=1), self.access[keep], 0.0),
            # each donor's budget added in member order, as a Python sum adds
            budget_hz=np.cumsum(donors, axis=1)[:, -1],
            offered=offered,
            min_rate_bps=self.min_rate_bps[keep],
            price_per_bit=self.price_per_bit[keep],
            ssg=ssg,
        )


def build_problem(
    scenario: Scenario, access: AccessEstimate, variant: str = "s3"
) -> SlicingProblem:
    """Assemble the allocation LP from a scenario and airtime estimates.

    Every link needs an estimate; a missing one is an error rather than
    a silent zero, because a dropped entitlement quietly changes the
    market.  The market pools spectrum as the coalition of every
    operator (:meth:`SlicingProblem.restrict`) and then takes the
    variant's caps (:func:`as_variant`).
    """
    mnos = sorted(scenario.mnos, key=lambda m: m.id)
    members = tuple(m.id for m in mnos)
    service_ids = tuple(s.id for s in scenario.services)
    links = scenario.links
    shares = []
    for link in links:
        try:
            share = float(access.access[link.id])
        except KeyError:
            raise KeyError(f"no airtime estimate for link {link.id!r}") from None
        # measured shares carry simulation noise; tolerate a few percent
        # of overshoot at the boundaries and clamp it away
        if not -0.05 <= share <= 1.05:
            raise ValueError(f"airtime estimate for {link.id!r} outside [0, 1]: {share}")
        shares.append(min(1.0, max(0.0, share)))
    market = SlicingProblem(
        link_ids=tuple(link.id for link in links),
        link_owner=tuple(link.owner for link in links),
        service_ids=service_ids,
        members=members,
        mno_budget_hz=tuple(m.licensed_bandwidth_hz for m in mnos),
        rate_bps_hz=tuple(scenario.link_rate_per_hz(link) for link in links),
        # restrict zeroes the share of a link that offers no slice; with
        # no services that is every link, and this unpooled market must
        # not hold airtime there to begin with
        access=tuple(shares) if service_ids else (0.0,) * len(links),
        budget_hz=(0.0,) * len(links),
        offered=((True,) * len(service_ids),) * len(links),
        min_rate_bps=tuple(
            tuple(scenario.min_throughput_bps(link.owner, sid) for sid in service_ids)
            for link in links
        ),
        price_per_bit=tuple(
            tuple(scenario.price_per_bit(link.owner, sid) for sid in service_ids)
            for link in links
        ),
        unlicensed_hz=scenario.band.unlicensed_bandwidth_hz,
        ssg=tuple(scenario.sharing_group(sid) for sid in service_ids),
    )
    # with no operators there are no links either, and nothing to pool
    if members:
        market = market.restrict(members)
    return as_variant(market, variant)


def as_variant(problem: SlicingProblem, variant: str) -> SlicingProblem:
    """Rewrite a problem under another deployment variant.

    ``s1`` zeroes every licensed budget, ``s2`` zeroes every airtime
    entitlement, ``s3`` returns the problem with both resources intact.
    Only the resource caps change; tariffs and floors stay put.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "s1":
        return replace(
            problem,
            variant=variant,
            budget_hz=np.zeros(problem.n_links),
            mno_budget_hz=np.zeros(len(problem.members)),
        )
    if variant == "s2":
        return replace(problem, variant=variant, access=np.zeros(problem.n_links))
    return replace(problem, variant=variant)


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True, eq=False)
class SlicingSolution:
    """An allocation with its welfare and bookkeeping helpers.

    ``u_hz[k, l]`` is licensed bandwidth and ``alpha[k, l]`` the airtime
    fraction, both read-only ``(links, slices)`` arrays copied once from
    any array-like.  ``objective`` is the total revenue of the
    allocation, recomputed from the primal values rather than copied out
    of any solver's internal report.  Sums run pair by pair in link
    order, as the revenue is defined.
    """

    problem: SlicingProblem
    u_hz: np.ndarray
    alpha: np.ndarray
    objective: float
    method: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        shape = self.problem.offered.shape
        for name in ("u_hz", "alpha"):
            object.__setattr__(self, name, _frozen(getattr(self, name), float, shape, name))

    @property
    def throughput_bps(self) -> np.ndarray:
        """Delivered rate of every (link, slice) pair, ``(links, slices)``."""
        p = self.problem
        return (self.u_hz + self.alpha * p.unlicensed_hz) * p.rate_bps_hz[:, None]

    def slice_worth(self, l: int) -> float:
        """Revenue earned by slice ``l`` over every link."""
        worth = self.problem.price_per_bit[:, l] * self.throughput_bps[:, l]
        return sum(worth.tolist(), 0.0)

    def mno_worth(self, mno_id: int) -> float:
        """Revenue earned on ``mno_id``'s links, link by link and slice by slice."""
        p = self.problem
        own = np.equal(p.link_owner, mno_id)
        return sum((p.price_per_bit[own] * self.throughput_bps[own]).ravel().tolist(), 0.0)

    def licensed_rate_bps(self, l: int) -> float:
        return sum((self.u_hz[:, l] * self.problem.rate_bps_hz).tolist(), 0.0)

    def unlicensed_rate_bps(self, l: int) -> float:
        p = self.problem
        return sum((self.alpha[:, l] * p.unlicensed_hz * p.rate_bps_hz).tolist(), 0.0)

    def max_violation(self) -> float:
        """Largest constraint violation, normalized per family scale.

        Bandwidth families are measured relative to the problem's
        bandwidth scale so a hertz of slack means the same thing in a
        20 MHz market as in a 20 kHz one.
        """
        p = self.problem
        w, off, rate = p.width, p.offered, p.rate_bps_hz[:, None]
        u, a, floor = self.u_hz, self.alpha, p.min_rate_bps
        busy = off.any(axis=1)
        short = (floor - self.throughput_bps) / (w * rate)
        return float(
            max(
                0.0,
                np.abs(u[~off]).max(initial=0.0) / w,
                np.abs(a[~off]).max(initial=0.0),
                np.abs(np.where(off, a, 0.0).sum(axis=1) - p.access)[busy].max(initial=0.0),
                ((u.sum(axis=1) - p.budget_hz) / w)[busy].max(initial=0.0),
                -u.min(initial=0.0) / w,
                -a.min(initial=0.0),
                a.max(initial=1.0) - 1.0,
                short[off & (floor > 0)].max(initial=0.0),
            )
        )


def solution_from_arrays(
    problem: SlicingProblem,
    u: np.ndarray,
    alpha: np.ndarray,
    method: str,
    flags: tuple[str, ...] = (),
) -> SlicingSolution:
    """Package ``(links, slices)`` arrays as a solution, recomputing the objective."""
    u, alpha = np.asarray(u, dtype=float), np.asarray(alpha, dtype=float)
    r, c = problem.rows, problem.cols
    thru = (u[r, c] + alpha[r, c] * problem.unlicensed_hz) * problem.rate_bps_hz[r]
    return SlicingSolution(
        problem=problem,
        u_hz=u,
        alpha=alpha,
        # pair by pair in link order, as the revenue is defined
        objective=sum((problem.price_per_bit[r, c] * thru).tolist(), 0.0),
        method=method,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# exact oracle


@dataclass(frozen=True)
class LPModel:
    """One allocation LP held as its nonzeros.

    There is a column per offered pair's ``u``, then one per pair's
    ``alpha``.  ``ub`` and ``eq`` are the ``(row, col, value)`` triplets
    of the inequality and equality matrices: a QoS row per pair with a
    positive floor and a budget row per link that offers a slice, and an
    airtime equality per such link.  ``bounds`` holds a ``(low, high)``
    row per column.
    """

    c: np.ndarray
    ub: tuple[np.ndarray, np.ndarray, np.ndarray]
    b_ub: np.ndarray
    eq: tuple[np.ndarray, np.ndarray, np.ndarray]
    b_eq: np.ndarray
    bounds: np.ndarray


def _lp_model(problem: SlicingProblem) -> LPModel:
    r, c = problem.rows, problem.cols
    n = len(r)
    cols = np.arange(n)
    links, link_row = np.unique(r, return_inverse=True)
    floor = problem.min_rate_bps[r, c]
    qos = np.flatnonzero(floor > 0)
    q = np.arange(len(qos))
    gain = problem.price_per_bit[r, c] * problem.rate_bps_hz[r]
    return LPModel(
        c=np.concatenate([-gain, -gain * problem.unlicensed_hz]),
        ub=(
            np.concatenate([q, q, len(qos) + link_row]),
            np.concatenate([qos, n + qos, cols]),
            np.concatenate(
                [np.full(len(qos), -1.0), np.full(len(qos), -problem.unlicensed_hz), np.ones(n)]
            ),
        ),
        b_ub=np.concatenate([-floor[qos] / problem.rate_bps_hz[r[qos]], problem.budget_hz[links]]),
        eq=(link_row, n + cols, np.ones(n)),
        b_eq=problem.access[links],
        bounds=np.column_stack(
            [np.zeros(2 * n), np.concatenate([np.full(n, np.inf), np.ones(n)])]
        ),
    )


def _highs(models: list[LPModel]):
    """One HiGHS solve of the block-diagonal stack of ``models``.

    Each model's rows and columns are offset past those of the models
    before it, so the stacked matrix holds exactly the models' own
    nonzeros and the blocks share no variable.  HiGHS takes one matrix
    with ``lo <= A x <= hi``: every model's inequality rows (``lo`` is
    ``-inf``), then every model's equality rows (``lo = hi = b_eq``).
    """
    # importing scipy is most of a command's start-up: only an LP
    # solve pays for it
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_array

    col_at = np.cumsum([0] + [len(m.c) for m in models])
    ub_at = np.cumsum([0] + [len(m.b_ub) for m in models])
    eq_at = ub_at[-1] + np.cumsum([0] + [len(m.b_eq) for m in models])
    parts = [(m.ub, r, c) for m, r, c in zip(models, ub_at, col_at)]
    parts += [(m.eq, r, c) for m, r, c in zip(models, eq_at, col_at)]
    b_ub = np.concatenate([m.b_ub for m in models])
    b_eq = np.concatenate([m.b_eq for m in models])
    rows = np.concatenate([t[0] + r for t, r, _ in parts])
    cols = np.concatenate([t[1] + c for t, _, c in parts])
    # CSC order: by column, rows ascending within each
    order = np.lexsort((rows, cols))
    starts = np.zeros(col_at[-1] + 1, dtype=rows.dtype)
    np.cumsum(np.bincount(cols, minlength=col_at[-1]), out=starts[1:])
    a = csc_array(
        (np.concatenate([t[2] for t, _, _ in parts])[order], rows[order], starts),
        shape=(eq_at[-1], col_at[-1]),
    )
    bounds = np.concatenate([m.bounds for m in models])
    return milp(
        np.concatenate([m.c for m in models]),
        bounds=Bounds(bounds[:, 0], bounds[:, 1]),
        constraints=LinearConstraint(
            a,
            np.concatenate([np.full(len(b_ub), -np.inf), b_eq]),
            np.concatenate([b_ub, b_eq]),
        ),
    )


def _highs_once(problem: SlicingProblem):
    """One HiGHS solve of ``problem``'s LP."""
    return _highs([_lp_model(problem)])


def _blame_family(problem: SlicingProblem) -> str:
    """Name the cheapest relaxation that would restore feasibility.

    ``budget``: the market owns enough licensed spectrum, the pooling
    arrangement is what binds (every operator contributing its whole
    band to every link would fix it).  ``access``: granting the full
    channel (entitlement 1 on every link that offers a slice) would
    fix it.  ``qos``: the floors exceed even those caps, so the demand
    itself is the problem.
    """
    pool = sum(problem.mno_budget_hz.tolist())
    pooled = replace(problem, budget_hz=np.full(problem.n_links, pool))
    if _highs_once(pooled).status == 0:
        return FAMILY_BUDGET
    opened = replace(problem, access=problem.offered.any(axis=1))
    if _highs_once(opened).status == 0:
        return FAMILY_ACCESS
    return FAMILY_QOS


def _lp_solution(problem: SlicingProblem, x: np.ndarray) -> SlicingSolution:
    """Package a block of HiGHS's primal values as a solution."""
    r, c = problem.rows, problem.cols
    n = len(r)
    u, alpha = np.zeros((2, *problem.offered.shape))
    # clamp as max(0, x) and min(1, x) do: HiGHS's -0.0 becomes 0.0
    x_u, x_a = x[:n], x[n:]
    x_a = np.where(x_a > 0.0, x_a, 0.0)
    u[r, c] = np.where(x_u > 0.0, x_u, 0.0)
    alpha[r, c] = np.where(x_a < 1.0, x_a, 1.0)
    return solution_from_arrays(problem, u, alpha, "lp")


def solve_lp_stack(problems: list[SlicingProblem]) -> list[SlicingSolution | None]:
    """Solve several allocation LPs exactly, in one HiGHS call.

    The LPs share no variable, so their block-diagonal stack is optimal
    exactly where each block is optimal for its own problem.  ``None``
    marks a problem with no feasible point: one such block makes the
    whole stack infeasible, and then each problem is solved on its own.
    The violated constraint family is not diagnosed here.
    """
    if not problems:
        return []
    models = [_lp_model(p) for p in problems]
    ends = np.cumsum([len(m.c) for m in models])
    x = np.zeros(0)
    if ends[-1]:
        res = _highs(models)
        if res.status == 2:
            if len(problems) == 1:
                return [None]
            return [solve_lp_stack([p])[0] for p in problems]
        if res.status != 0:
            raise RuntimeError(f"allocation solve failed with status {res.status}")
        x = res.x
    return [_lp_solution(p, b) for p, b in zip(problems, np.split(x, ends[:-1]))]


def solve_lp_oracle(problem: SlicingProblem) -> SlicingSolution:
    """Solve the allocation LP exactly.

    Raises :class:`InfeasibleProblem` with the violated constraint
    family when the QoS floors cannot be met from the pooled spectrum.
    """
    (solution,) = solve_lp_stack([problem])
    if solution is None:
        raise InfeasibleProblem(
            _blame_family(problem),
            f"no feasible allocation for {problem.n_links} links"
            f" / {problem.n_services} slices ({problem.variant})",
        )
    return solution
