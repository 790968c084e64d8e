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

Every row of the LP involves one link: a QoS floor per offered pair,
a licensed cap per link and an airtime equality per link.  So the LP
splits into one small LP per link, each solved in closed form by a
greedy fill (:func:`_fill`), vectorised over ``(links, slices)``
arrays.  Each link's licensed cap is pooled from the members' budgets
by one rule (:func:`_pooled`), for the market itself, a restriction
(:meth:`SlicingProblem.restrict`) or every coalition at once:
:func:`solve_lp_coalitions` values them all in one such fill, into a
table indexed by member bitmask, with no restricted problem built.  No
solver library is called, so no command imports scipy.

Three deployment variants share one problem shape: ``s1`` zeroes the
members' budgets and so every licensed cap (unlicensed only), ``s2``
zeroes the airtime entitlements (licensed only), and ``s3`` keeps both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
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


class TooManyOperatorsError(ValueError):
    """A market of more than :data:`MAX_COALITION_MEMBERS` operators: every
    game step refuses its coalitions before solving anything."""


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
    array-like: ``rate_bps_hz`` and ``access`` hold one entry per link,
    ``mno_budget_hz`` one per member, and ``offered`` (bool),
    ``min_rate_bps`` and ``price_per_bit`` are ``(links, slices)``.
    The labels (``link_ids``, ``link_owner``, ``service_ids``,
    ``members``, ``ssg``) stay tuples.  Problems compare by identity;
    compare their fields with ``np.array_equal``.

    The licensed cap per link, :attr:`budget_hz`, is derived from the
    members' budgets, so a member's budget is the only way a cap enters.

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
        # the closed-form solve fills airtime in shares of this band
        if not 0.0 <= self.unlicensed_hz < math.inf:
            raise ValueError(
                f"unlicensed band {self.unlicensed_hz} Hz is not finite and nonnegative"
            )
        if len(self.link_owner) != n:
            raise ValueError("link_owner must have one entry per link")
        if len(self.ssg) != m:
            raise ValueError("one sharing group per service required")
        for name, dtype, shape in (
            ("mno_budget_hz", float, (len(self.members),)),
            ("rate_bps_hz", float, (n,)),
            ("access", float, (n,)),
            ("offered", bool, (n, m)),
            ("min_rate_bps", float, (n, m)),
            ("price_per_bit", float, (n, m)),
        ):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype, shape, name))
        budget = self.mno_budget_hz
        for bad, what in ((~np.isfinite(budget), "non-finite"), (budget < 0, "negative")):
            if bad.any():
                raise ValueError(f"member {self.members[bad.argmax()]} has a {what} budget")
        owned = np.equal.outer(self.link_owner, self.members).any(axis=1)
        in_range = (self.access >= 0.0) & (self.access <= 1.0)
        for bad, what in (
            (~owned, "is owned by a non-member"),
            (~in_range, "has an airtime share outside [0, 1]"),
            (~np.isfinite(self.rate_bps_hz), "has a non-finite rate"),
            (~np.isfinite(self.price_per_bit).all(axis=1), "has a non-finite price"),
            (~np.isfinite(self.min_rate_bps).all(axis=1), "has a non-finite QoS floor"),
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
        """The link of each offered pair, in link order, then slice order."""
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
        return max(self.unlicensed_hz, *self.budget_hz.tolist(), *self.mno_budget_hz.tolist(), 1.0)

    @cached_property
    def budget_hz(self) -> np.ndarray:
        """The licensed cap per link, read-only: the summed budgets of
        every member that pools spectrum for a slice the link offers,
        the grand coalition's row of :func:`_pooled`."""
        # with no operators there are no links either, and nothing to pool
        joined = np.ones((1, len(self.members)), dtype=bool)
        budget = _pooled(self, joined)[3][0] if self.members else np.zeros(0)
        budget.setflags(write=False)
        return budget

    @cached_property
    def coalition_table(self) -> tuple[float | None, ...]:
        """Every coalition's optimal welfare by member bitmask, as
        :func:`solve_lp_coalitions` values them, computed once per
        problem: every game step on the market reads this table."""
        return tuple(solve_lp_coalitions(self))

    # -- coalition restriction -------------------------------------------

    def restrict(self, coalition) -> SlicingProblem:
        """The same market limited to ``coalition``.

        Only the coalition's links remain, sharing groups shrink to
        coalition members, and so each link's licensed cap follows from
        the budgets of the members still pooling for it.  A link whose
        owner no longer shares any slice is carried along with zero
        entitlements so per-link reports keep their shape.  This is the
        one-coalition case of :func:`_pooled`, the mask pass
        :func:`solve_lp_coalitions` runs over every coalition at once.
        """
        coalition = frozenset(coalition)
        if not coalition:
            raise ValueError("empty coalition")
        if not coalition <= set(self.members):
            raise ValueError(f"coalition {sorted(coalition)} not among members")
        joined = np.array([[j in coalition for j in self.members]])
        (keep,), offered, access, _ = _pooled(self, joined)
        return replace(
            self,
            link_ids=tuple(compress(self.link_ids, keep)),
            link_owner=tuple(compress(self.link_owner, keep)),
            members=tuple(compress(self.members, joined[0])),
            mno_budget_hz=self.mno_budget_hz[joined[0]],
            rate_bps_hz=self.rate_bps_hz[keep],
            access=access[keep],
            offered=offered[keep],
            min_rate_bps=self.min_rate_bps[keep],
            price_per_bit=self.price_per_bit[keep],
            ssg=tuple(g & coalition for g in self.ssg),
        )


def _pooled(problem: SlicingProblem, joined: np.ndarray):
    """The pooling rule of every licensed cap, for a stack of coalitions
    at once.

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

    ``s1`` zeroes every member's budget and so every licensed cap,
    ``s2`` zeroes every airtime entitlement, ``s3`` returns the problem
    with both resources intact.  Only the resource caps change; tariffs
    and floors stay put.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "s1":
        return replace(problem, variant=variant, mno_budget_hz=np.zeros(len(problem.members)))
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

#: How far a link's floor gaps may overdraw its licensed cap and still
#: count as met, relative to the link's summed floor: room for rounding
#: in the sums, far below an infeasible link's overdraw (2.4e-4 at the
#: least over the 1440 seed-1 ``market-random`` market variants)
FEASIBLE_REL = 1e-9


def _fill(offered, price, floor, rate, cap, access, unlicensed: float):
    """The optimal allocation of each row's LP in closed form, one link
    per row.

    ``offered``, ``price`` and ``floor`` are ``(rows, slices)``;
    ``rate``, ``cap`` and ``access`` hold one entry per row.  No row of
    the allocation LP spans two links, so each link's LP is solved
    alone, by a greedy fill in the manner of Dantzig's fractional
    knapsack.  A slice earns the link's rate times its tariff per hertz,
    so the slices rank by descending tariff, ties to the lower index.

    - Airtime fills each slice's floor segment, ``min(1, floor_Hz /
      unlicensed_Hz)``, down the ranking, then the rest of each slice's
      share up to 1, down the ranking again, until ``access`` is spent.
      A hertz of floor met by airtime frees a licensed hertz for the top
      slice, so every floor segment earns the top tariff, and filling
      them first leaves the least floor to the cap.
    - Licensed spectrum meets each slice's remaining floor gap, and the
      rest of the cap goes to the top slice unless its tariff is 0.

    The LP is degenerate: this rule picks one optimal vertex of several,
    and a simplex solver may return another of the same value.  Returns
    ``u`` and ``alpha``, zero off the offered pairs, and whether each
    row's floor gaps fit in its cap within :data:`FEASIBLE_REL`; where
    they do not, the row has no feasible point and its ``u`` overdraws
    the cap.
    """
    # an infinite cap makes the LP unbounded
    if not np.isfinite(cap).all():
        raise ValueError("licensed caps must be finite")
    # each row's slices by descending tariff, pairs not offered last
    key = np.where(offered, price, -1.0)
    order = np.argsort(-key, axis=1, kind="stable")
    key = np.take_along_axis(key, order, axis=1)
    on = np.take_along_axis(offered, order, axis=1)
    floor_hz = np.where(on, np.take_along_axis(floor, order, axis=1) / rate[:, None], 0.0)
    segment = np.minimum(floor_hz, unlicensed) / (unlicensed or 1.0)
    # the floor segments and then the rest of every share, in one run
    # that the airtime fills from its start
    run = np.concatenate([segment, on - segment], axis=1)
    before = np.zeros_like(run)
    np.cumsum(run[:, :-1], axis=1, out=before[:, 1:])
    taken = np.minimum(np.maximum(access[:, None] - before, 0.0), run)
    m = offered.shape[1]
    alpha = taken[:, :m] + taken[:, m:]
    # the floor each slice's segment leaves to licensed spectrum: exactly
    # 0 where the segment is full, and the part of a floor above the band
    u = np.maximum(floor_hz - unlicensed, 0.0) + unlicensed * (segment - taken[:, :m])
    need = u.sum(axis=1)
    # the rest of the cap goes to the top slice when it earns anything
    u[:, :1] += np.where(key[:, :1] > 0.0, np.maximum(cap - need, 0.0)[:, None], 0.0)
    out = np.zeros((2, *offered.shape))
    np.put_along_axis(out[0], order, u, axis=1)
    np.put_along_axis(out[1], order, alpha, axis=1)
    return out[0], out[1], need - cap <= FEASIBLE_REL * floor_hz.sum(axis=1)


def _blame_family(problem: SlicingProblem) -> str:
    """Name the cheapest relaxation that would restore feasibility.

    ``budget``: the market owns enough licensed spectrum, the pooling
    arrangement is what binds (every operator contributing its whole
    band to every link would fix it).  ``access``: granting the full
    channel (entitlement 1 on every link that offers a slice) would
    fix it.  ``qos``: the floors exceed even those caps, so the demand
    itself is the problem.
    """
    p = problem
    for family, cap, access in (
        (FAMILY_BUDGET, sum(p.mno_budget_hz.tolist()), p.access),
        (FAMILY_ACCESS, p.budget_hz, p.offered.any(axis=1) * 1.0),
    ):
        *_, met = _fill(
            p.offered, p.price_per_bit, p.min_rate_bps, p.rate_bps_hz, cap, access,
            p.unlicensed_hz,
        )
        if met.all():
            return family
    return FAMILY_QOS


#: The most members whose coalitions :func:`solve_lp_coalitions` values: at
#: 3 slices, 8 take 28 ms and 24 MiB at 192 links, 12 take 0.37 s and 301 MiB
#: at 144 links (2-core Xeon)
MAX_COALITION_MEMBERS = 8


def solve_lp_coalitions(problem: SlicingProblem) -> list[float | None]:
    """The optimal welfare of ``problem`` restricted to each coalition
    of its members, by bitmask: entry ``mask`` values the coalition whose
    bit ``j`` marks ``problem.members[j]``, and entry 0 (the empty one)
    is 0.0.  One pass of masks (:func:`_pooled`) gives every
    coalition's links their pooled caps straight from the market's
    arrays, and one :func:`_fill` solves every link of every coalition.
    Each value is summed as :func:`solution_from_arrays` sums an
    objective, so it is bit for bit ``solve_lp_oracle`` of
    ``problem.restrict`` of that coalition; ``None`` marks one with no
    feasible point.  More than :data:`MAX_COALITION_MEMBERS` members
    raise :class:`TooManyOperatorsError` before anything is solved.
    """
    p, size = problem, len(problem.members)
    if size > MAX_COALITION_MEMBERS:
        raise TooManyOperatorsError(
            f"{size} operators have {2**size - 1} coalitions; the coalition table"
            f" holds at most {MAX_COALITION_MEMBERS} operators"
        )
    # row k is the coalition of bitmask k + 1
    joined = (np.arange(1, 1 << size)[:, None] >> np.arange(size) & 1).astype(bool)
    keep, offered, access, budget = _pooled(p, joined)
    k, (n, m) = len(joined), offered.shape
    price, rate = np.tile(p.price_per_bit, (k, 1)), np.tile(p.rate_bps_hz, k)
    u, alpha, met = _fill(
        (keep[:, :, None] & offered).reshape(k * n, m), price, np.tile(p.min_rate_bps, (k, 1)),
        rate, budget.ravel(), np.tile(access, k), p.unlicensed_hz,
    )
    # the pairs a coalition does not offer earn exactly 0.0, which
    # leaves each sum as it is
    revenue = _revenue(price, u, alpha, p.unlicensed_hz, rate[:, None]).reshape(k, n * m)
    return [0.0] + [
        sum(row, 0.0) if ok else None
        for row, ok in zip(revenue.tolist(), met.reshape(k, n).all(axis=1).tolist())
    ]


def solve_lp_oracle(problem: SlicingProblem) -> SlicingSolution:
    """Solve the allocation LP exactly, link by link (:func:`_fill`).

    Raises :class:`InfeasibleProblem` with the violated constraint
    family when the QoS floors cannot be met from the pooled spectrum.
    """
    p = problem
    u_hz, airtime, met = _fill(
        p.offered, p.price_per_bit, p.min_rate_bps, p.rate_bps_hz, p.budget_hz,
        p.access, p.unlicensed_hz,
    )
    if not met.all():
        raise InfeasibleProblem(
            _blame_family(p),
            f"no feasible allocation for {p.n_links} links"
            f" / {p.n_services} slices ({p.variant})",
        )
    return solution_from_arrays(p, u_hz, airtime, "lp")
