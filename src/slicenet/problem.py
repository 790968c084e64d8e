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
matrices.  One assembly (:func:`_lp_model`) lays out a stack of LPs,
one block per LP, from their offered pairs: each block's rows and
columns follow those of the blocks before it, so the blocks share no
variable.  The oracle solves one problem as a single block.
:func:`solve_lp_coalitions` stacks the restrictions of one market to
many coalitions straight from the market's arrays, in one pass of
masks over coalitions, links and slices, and returns only their
optimal values: it builds no restricted problem and no solution, and
:meth:`SlicingProblem.restrict` is the one-coalition case of its
pooling rule.  Its values are bit for bit those that ``linprog`` gives
on the block diagonal of the restricted problems' one-block models.
HiGHS is reached through scipy's public ``milp`` with no integer
variables: one sparse CSC matrix ``lo <= A x <= hi`` holds every
inequality row (``lo = -inf``) and then every equality row (``lo =
hi``), the row order ``linprog`` would build from the same model, so
the solutions are the ones ``linprog`` returns, bit for bit, without
its per-call input handling.  scipy is imported inside that one call,
not with this module, so a command or library call that solves no LP
never loads it.

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
            ((self.price_per_bit < 0).any(axis=1), "has a negative price"),
            ((self.min_rate_bps < 0).any(axis=1), "has a negative QoS floor"),
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

    def coalition_mask(self, coalitions) -> np.ndarray:
        """``joined[k, j]``: member ``j`` belongs to ``coalitions[k]``.

        Each coalition is a set of member ids; one with a non-member
        raises ``ValueError``.
        """
        members = set(self.members)
        for coalition in coalitions:
            if not coalition <= members:
                raise ValueError(f"coalition {sorted(coalition)} not among members")
        return np.array(
            [[j in c for j in self.members] for c in coalitions], dtype=bool
        ).reshape(len(coalitions), len(self.members))

    def restrict(self, coalition) -> SlicingProblem:
        """The same market limited to ``coalition``.

        Only the coalition's links remain, sharing groups shrink to
        coalition members, and each link's licensed cap is rebuilt from
        the budgets of the operators still pooling for it.  A link
        whose owner no longer shares any slice is carried along with
        zero entitlements so per-link reports keep their shape.  This
        is the one-coalition case of :func:`_pooled`, the mask pass
        :func:`solve_lp_coalitions` runs over many coalitions at once.
        """
        coalition = frozenset(coalition)
        if not coalition:
            raise ValueError("empty coalition")
        joined = self.coalition_mask([coalition])
        keep, offered, access, budget = _pooled(self, joined)
        keep, budget = keep[0], budget[0]
        return replace(
            self,
            link_ids=tuple(compress(self.link_ids, keep)),
            link_owner=tuple(compress(self.link_owner, keep)),
            members=tuple(compress(self.members, joined[0])),
            mno_budget_hz=self.mno_budget_hz[joined[0]],
            rate_bps_hz=self.rate_bps_hz[keep],
            access=access[keep],
            budget_hz=budget[keep],
            offered=offered[keep],
            min_rate_bps=self.min_rate_bps[keep],
            price_per_bit=self.price_per_bit[keep],
            ssg=tuple(g & coalition for g in self.ssg),
        )


def _pooled(problem: SlicingProblem, joined: np.ndarray):
    """The pooling rule of :meth:`SlicingProblem.restrict`, for a stack
    of coalitions at once.

    ``joined[k, j]`` marks member ``j`` of coalition ``k``.  Returns
    ``keep[k, i]``, whether link ``i``'s owner is in coalition ``k``;
    ``offered``, the pairs a kept link offers, which do not depend on
    the rest of its coalition; ``access``, per link, zero on a link
    that offers no slice; and ``budget_hz[k, i]``, the summed budgets
    of coalition ``k``'s members that pool spectrum for a slice link
    ``i`` offers.
    """
    members = problem.members
    # pools[l, j]: member j pools spectrum for slice l
    pools = np.array(
        [[j in g for j in members] for g in problem.ssg], dtype=bool
    ).reshape(problem.n_services, len(members))
    owner = np.equal.outer(problem.link_owner, members).argmax(axis=1)
    # a kept link's owner is in the coalition, so it shares a slice
    # exactly where its owner pools for it
    offered = problem.offered & pools[:, owner].T
    donors = np.where(
        (offered @ pools)[None] & joined[:, None, :], problem.mno_budget_hz, 0.0
    )
    return (
        joined[:, owner],
        offered,
        np.where(offered.any(axis=1), problem.access, 0.0),
        # each donor's budget added in member order, as a Python sum adds
        np.cumsum(donors, axis=2)[..., -1],
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


def _revenue(price, u, alpha, unlicensed, rate) -> np.ndarray:
    """The revenue of each pair: its tariff times its delivered rate."""
    return price * ((u + alpha * unlicensed) * rate)


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
    revenue = _revenue(
        problem.price_per_bit[r, c], u[r, c], alpha[r, c], problem.unlicensed_hz,
        problem.rate_bps_hz[r],
    )
    return SlicingSolution(
        problem=problem,
        u_hz=u,
        alpha=alpha,
        # pair by pair in link order, as the revenue is defined
        objective=sum(revenue.tolist(), 0.0),
        method=method,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# exact oracle


@dataclass(frozen=True)
class _Pairs:
    """The offered pairs of a stack of allocation LPs, one block per LP.

    Pairs run block by block, and within a block in link order, then
    slice order.  Per pair: its ``block``, the index of its ``link``
    among the busy links (those that offer a slice), its tariff
    ``price``, its link's ``rate``, its QoS ``floor`` and its block's
    ``unlicensed`` band.  Per busy link, in the same order: its
    ``link_block``, licensed cap ``budget`` and airtime ``access``.
    """

    n_blocks: int
    block: np.ndarray
    link: np.ndarray
    price: np.ndarray
    rate: np.ndarray
    floor: np.ndarray
    unlicensed: np.ndarray
    link_block: np.ndarray
    budget: np.ndarray
    access: np.ndarray

    @property
    def ends(self) -> np.ndarray:
        """One past each block's last pair."""
        return np.cumsum(np.bincount(self.block, minlength=self.n_blocks))


def _pairs(offered, price, floor, rate, budget, access, unlicensed) -> _Pairs:
    """The pairs of a stack given as ``offered[k, i, l]``: block ``k``
    offers slice ``l`` on link ``i``.

    ``price`` and ``floor`` broadcast to ``offered``'s shape, ``rate``,
    ``budget`` and ``access`` to its ``(blocks, links)`` and
    ``unlicensed`` to its blocks.
    """
    shape = offered.shape
    k, i, l = np.nonzero(offered)
    busy = offered.any(axis=2)
    link_block, link = np.nonzero(busy)
    # each busy link's index among them all, block by block
    at = (np.cumsum(busy.ravel()) - 1).reshape(shape[:2])
    return _Pairs(
        n_blocks=shape[0],
        block=k,
        link=at[k, i],
        price=np.broadcast_to(price, shape)[k, i, l],
        rate=np.broadcast_to(rate, shape[:2])[k, i],
        floor=np.broadcast_to(floor, shape)[k, i, l],
        unlicensed=np.broadcast_to(unlicensed, shape[:1])[k],
        link_block=link_block,
        budget=np.broadcast_to(budget, shape[:2])[link_block, link],
        access=np.broadcast_to(access, shape[:2])[link_block, link],
    )


def _problem_pairs(p: SlicingProblem) -> _Pairs:
    """The pairs of ``p``'s LP, as one block."""
    return _pairs(
        p.offered[None], p.price_per_bit, p.min_rate_bps, p.rate_bps_hz,
        p.budget_hz, p.access, p.unlicensed_hz,
    )


@dataclass(frozen=True)
class LPModel:
    """A stack of allocation LPs held as its nonzeros.

    Each block has a column per offered pair's ``u``, then one per
    pair's ``alpha``.  ``ub`` and ``eq`` are the ``(row, col, value)``
    triplets of the inequality and equality matrices.  Each block has
    a QoS row per pair with a positive floor, then a budget row per
    link that offers a slice, and an airtime equality per such link.
    Every block's columns and rows come after those of the blocks
    before it, so the blocks share no variable.  ``bounds`` holds a
    ``(low, high)`` row per column.  ``u_col`` and ``alpha_col`` are
    the columns of each pair.
    """

    c: np.ndarray
    ub: tuple[np.ndarray, np.ndarray, np.ndarray]
    b_ub: np.ndarray
    eq: tuple[np.ndarray, np.ndarray, np.ndarray]
    b_eq: np.ndarray
    bounds: np.ndarray
    u_col: np.ndarray
    alpha_col: np.ndarray


def _lp_model(pairs: _Pairs) -> LPModel:
    n, k = len(pairs.block), pairs.n_blocks
    index = np.arange(n)
    ends = pairs.ends
    # a block's u columns follow both column sets of the blocks before it
    u_col = index + (ends - np.bincount(pairs.block, minlength=k))[pairs.block]
    alpha_col = index + ends[pairs.block]
    qos = np.flatnonzero(pairs.floor > 0)
    q_ends = np.cumsum(np.bincount(pairs.block[qos], minlength=k))
    l_counts = np.bincount(pairs.link_block, minlength=k)
    # a block's QoS rows follow every inequality row of the blocks
    # before it, and its budget rows follow its own QoS rows
    qos_row = np.arange(len(qos)) + (np.cumsum(l_counts) - l_counts)[pairs.block[qos]]
    budget_row = np.arange(len(pairs.link_block)) + q_ends[pairs.link_block]
    gain = pairs.price * pairs.rate
    c = np.empty(2 * n)
    c[u_col], c[alpha_col] = -gain, -gain * pairs.unlicensed
    b_ub = np.empty(len(qos) + len(budget_row))
    b_ub[qos_row] = -pairs.floor[qos] / pairs.rate[qos]
    b_ub[budget_row] = pairs.budget
    high = np.empty(2 * n)
    high[u_col], high[alpha_col] = np.inf, 1.0
    return LPModel(
        c=c,
        ub=(
            np.concatenate([qos_row, qos_row, budget_row[pairs.link]]),
            np.concatenate([u_col[qos], alpha_col[qos], u_col]),
            np.concatenate([np.full(len(qos), -1.0), -pairs.unlicensed[qos], np.ones(n)]),
        ),
        b_ub=b_ub,
        eq=(pairs.link, alpha_col, np.ones(n)),
        b_eq=pairs.access,
        bounds=np.column_stack([np.zeros(2 * n), high]),
        u_col=u_col,
        alpha_col=alpha_col,
    )


def _highs(model: LPModel):
    """One HiGHS solve of ``model``.

    HiGHS takes one matrix with ``lo <= A x <= hi``: every inequality
    row (``lo`` is ``-inf``), then every equality row (``lo = hi =
    b_eq``).
    """
    # importing scipy is most of a command's start-up: only an LP
    # solve pays for it
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_array

    n_ub, n_cols = len(model.b_ub), len(model.c)
    rows = np.concatenate([model.ub[0], model.eq[0] + n_ub])
    cols = np.concatenate([model.ub[1], model.eq[1]])
    # CSC order: by column, rows ascending within each
    order = np.lexsort((rows, cols))
    starts = np.zeros(n_cols + 1, dtype=rows.dtype)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=starts[1:])
    a = csc_array(
        (np.concatenate([model.ub[2], model.eq[2]])[order], rows[order], starts),
        shape=(n_ub + len(model.b_eq), n_cols),
    )
    return milp(
        model.c,
        bounds=Bounds(model.bounds[:, 0], model.bounds[:, 1]),
        constraints=LinearConstraint(
            a,
            np.concatenate([np.full(n_ub, -np.inf), model.b_eq]),
            np.concatenate([model.b_ub, model.b_eq]),
        ),
    )


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
    if _highs(_lp_model(_problem_pairs(pooled))).status == 0:
        return FAMILY_BUDGET
    opened = replace(problem, access=problem.offered.any(axis=1))
    if _highs(_lp_model(_problem_pairs(opened))).status == 0:
        return FAMILY_ACCESS
    return FAMILY_QOS


def _solve_pairs(pairs: _Pairs) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve a stack of LPs in one HiGHS call.

    The LPs share no variable, so their stack is optimal exactly where
    each block is optimal for its own LP.  Returns every pair's ``u``
    and ``alpha``, clamped into their bounds as ``max(0, x)`` and
    ``min(1, x)`` do (HiGHS's -0.0 becomes 0.0), or ``None`` when the
    stack has no feasible point, that is when one of its blocks has
    none.
    """
    if not len(pairs.block):
        # no pair, no column and no row: nothing to solve
        return np.zeros(0), np.zeros(0)
    model = _lp_model(pairs)
    res = _highs(model)
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"allocation solve failed with status {res.status}")
    u, alpha = res.x[model.u_col], res.x[model.alpha_col]
    alpha = np.where(alpha > 0.0, alpha, 0.0)
    return np.where(u > 0.0, u, 0.0), np.where(alpha < 1.0, alpha, 1.0)


def _coalition_pairs(problem: SlicingProblem, joined: np.ndarray) -> _Pairs:
    """The pairs of ``problem.restrict`` of each coalition ``joined``
    marks, one block per coalition, with no problem built."""
    keep, offered, access, budget = _pooled(problem, joined)
    return _pairs(
        keep[:, :, None] & offered, problem.price_per_bit, problem.min_rate_bps,
        problem.rate_bps_hz, budget, access, problem.unlicensed_hz,
    )


def solve_lp_coalitions(problem: SlicingProblem, joined: np.ndarray) -> list[float | None]:
    """The optimal welfare of ``problem`` restricted to each coalition,
    all of them in one HiGHS call.

    ``joined[k, j]`` marks member ``j`` of coalition ``k``
    (:meth:`SlicingProblem.coalition_mask`); every coalition is
    non-empty.  One pass of masks over coalitions, links and slices
    (:func:`_pooled`) lays out the stacked LP straight from the
    market's arrays, and each value is read off the stacked solution as
    :func:`solution_from_arrays` computes an objective.  ``None`` marks
    a coalition with no feasible point.  One such coalition spoils the
    whole stack, and then each coalition is solved on its own: the
    pass works row by row, so a one-row mask lays out exactly that
    coalition's block.  The values are bit for bit those that
    ``linprog`` gives on the block diagonal of the one-block models of
    ``problem.restrict`` of each coalition, in the same order, so their
    last bits can change with the coalitions stacked beside them.
    """
    if not len(joined):
        return []
    pairs = _coalition_pairs(problem, joined)
    solved = _solve_pairs(pairs)
    if solved is None:
        if len(joined) == 1:
            return [None]
        return [solve_lp_coalitions(problem, joined[k : k + 1])[0] for k in range(len(joined))]
    revenue = _revenue(pairs.price, *solved, pairs.unlicensed, pairs.rate).tolist()
    ends = pairs.ends.tolist()
    return [sum(revenue[start:end], 0.0) for start, end in zip([0] + ends, ends)]


def solve_lp_oracle(problem: SlicingProblem) -> SlicingSolution:
    """Solve the allocation LP exactly, as a stack of one block.

    Raises :class:`InfeasibleProblem` with the violated constraint
    family when the QoS floors cannot be met from the pooled spectrum.
    """
    solved = _solve_pairs(_problem_pairs(problem))
    if solved is None:
        raise InfeasibleProblem(
            _blame_family(problem),
            f"no feasible allocation for {problem.n_links} links"
            f" / {problem.n_services} slices ({problem.variant})",
        )
    r, c = problem.rows, problem.cols
    u_hz, airtime = np.zeros((2, *problem.offered.shape))
    u_hz[r, c], airtime[r, c] = solved
    return solution_from_arrays(problem, u_hz, airtime, "lp")
