"""Slice resource allocation as a linear program.

The decision variables live per (link, slice) pair: ``u`` is licensed
bandwidth in Hz drawn from the pooled operator budgets, ``alpha`` is
the fraction of the link's unlicensed airtime entitlement devoted to
the slice.  Revenue is linear in delivered throughput, so the welfare
maximization is an LP, and :func:`solve_lp_oracle` solves it exactly.
The distributed solver in :mod:`slicenet.solvers` is checked against
that oracle.

Three deployment variants share one problem shape: ``s1`` zeroes the
licensed budgets (unlicensed only), ``s2`` zeroes the airtime
entitlements (licensed only), and ``s3`` keeps both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linprog

from .scenario import Scenario

VARIANTS = ("s1", "s2", "s3")

#: Constraint families reported when a problem has no feasible point.
FAMILY_QOS = "qos"
FAMILY_ACCESS = "access"
FAMILY_BUDGET = "budget"
FAMILY_UNKNOWN = "unknown"


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


@dataclass(frozen=True)
class SlicingProblem:
    """Immutable LP data, one row per link, one column per slice.

    ``budget`` holds the licensed cap per link: the summed bandwidth of
    every operator that pools spectrum for at least one slice the
    link's owner participates in.  The cap applies per link; set
    ``aggregate_cap`` to additionally bound the sum over all links by
    the coalition's total licensed holdings.

    ``offered[k][l]`` marks the (link, slice) pairs that carry
    variables at all; pairs outside an owner's sharing groups are
    pinned to zero.
    """

    link_ids: tuple[str, ...]
    link_owner: tuple[int, ...]
    service_ids: tuple[int, ...]
    members: tuple[int, ...]
    mno_budget_hz: tuple[float, ...]
    rate_bps_hz: tuple[float, ...]
    access: tuple[float, ...]
    budget_hz: tuple[float, ...]
    offered: tuple[tuple[bool, ...], ...]
    min_rate_bps: tuple[tuple[float, ...], ...]
    price_per_bit: tuple[tuple[float, ...], ...]
    unlicensed_hz: float
    ssg: tuple[frozenset[int], ...]
    variant: str = "s3"
    aggregate_cap_hz: float | None = None

    def __post_init__(self):
        n, m = len(self.link_ids), len(self.service_ids)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if len(self.members) != len(self.mno_budget_hz):
            raise ValueError("one licensed budget per member required")
        for name in ("link_owner", "rate_bps_hz", "access", "budget_hz"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have one entry per link")
        for name in ("offered", "min_rate_bps", "price_per_bit"):
            rows = getattr(self, name)
            if len(rows) != n or any(len(r) != m for r in rows):
                raise ValueError(f"{name} must be {n} x {m}")
        if len(self.ssg) != m:
            raise ValueError("one sharing group per service required")
        for k in range(n):
            if self.link_owner[k] not in self.members:
                raise ValueError(f"link {self.link_ids[k]} owned by non-member")
            if not 0.0 <= self.access[k] <= 1.0:
                raise ValueError(f"airtime share of {self.link_ids[k]} outside [0, 1]")
            if self.rate_bps_hz[k] <= 0:
                raise ValueError(f"link {self.link_ids[k]} has nonpositive rate")
            if self.access[k] > 0 and not any(self.offered[k]):
                raise ValueError(
                    f"link {self.link_ids[k]} holds airtime but offers no slice"
                )

    # -- sizes -----------------------------------------------------------

    @property
    def n_links(self) -> int:
        return len(self.link_ids)

    @property
    def n_services(self) -> int:
        return len(self.service_ids)

    def active_pairs(self) -> list[tuple[int, int]]:
        """(link index, service index) pairs that carry variables."""
        return [
            (k, l)
            for k in range(self.n_links)
            for l in range(self.n_services)
            if self.offered[k][l]
        ]

    def links_of(self, mno_id: int) -> list[int]:
        return [k for k in range(self.n_links) if self.link_owner[k] == mno_id]

    # -- coalition restriction -------------------------------------------

    def restrict(self, coalition) -> "SlicingProblem":
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
        members = tuple(i for i in self.members if i in coalition)
        budget_of = dict(zip(self.members, self.mno_budget_hz))
        ssg = tuple(g & coalition for g in self.ssg)
        keep = [k for k in range(self.n_links) if self.link_owner[k] in coalition]
        offered, access, budget = [], [], []
        for k in keep:
            owner = self.link_owner[k]
            row = tuple(
                bool(self.offered[k][l]) and owner in ssg[l]
                for l in range(self.n_services)
            )
            donors = set()
            for l in range(self.n_services):
                if row[l]:
                    donors |= ssg[l]
            offered.append(row)
            access.append(self.access[k] if any(row) else 0.0)
            budget.append(sum(budget_of[j] for j in donors))
        cap = None
        if self.aggregate_cap_hz is not None:
            cap = sum(budget_of[j] for j in members)
        return replace(
            self,
            link_ids=tuple(self.link_ids[k] for k in keep),
            link_owner=tuple(self.link_owner[k] for k in keep),
            members=members,
            mno_budget_hz=tuple(budget_of[j] for j in members),
            rate_bps_hz=tuple(self.rate_bps_hz[k] for k in keep),
            access=tuple(access),
            budget_hz=tuple(budget),
            offered=tuple(offered),
            min_rate_bps=tuple(tuple(self.min_rate_bps[k]) for k in keep),
            price_per_bit=tuple(tuple(self.price_per_bit[k]) for k in keep),
            ssg=ssg,
            aggregate_cap_hz=cap,
        )


def build_problem(
    scenario: Scenario,
    access,
    variant: str = "s3",
    coalition=None,
    aggregate: bool = False,
) -> SlicingProblem:
    """Assemble the allocation LP from a scenario and airtime estimates.

    ``access`` maps a link id to its estimated unlicensed airtime share
    (an estimate report with a ``value`` method works too).  Every link
    of every participating operator needs an entry; a missing one is an
    error rather than a silent zero, because a dropped entitlement
    quietly changes the market.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    members = tuple(sorted(m.id for m in scenario.mnos))
    lookup = access.value if hasattr(access, "value") else access.__getitem__

    service_ids = tuple(s.id for s in scenario.services)
    ssg = tuple(scenario.sharing_group(sid) & set(members) for sid in service_ids)
    budget_of = {m.id: m.licensed_bandwidth_hz for m in scenario.mnos}

    link_ids, link_owner, rate, xi = [], [], [], []
    offered, eta, price, budget = [], [], [], []
    for link in scenario.links:
        row = tuple(link.owner in g for g in ssg)
        try:
            share = float(lookup(link.id))
        except KeyError:
            raise KeyError(f"no airtime estimate for link {link.id!r}") from None
        # measured shares carry simulation noise; tolerate a few percent
        # of overshoot at the boundaries and clamp it away
        if not -0.05 <= share <= 1.05:
            raise ValueError(f"airtime estimate for {link.id!r} outside [0, 1]: {share}")
        share = min(1.0, max(0.0, share))
        donors = set()
        for l, sid in enumerate(service_ids):
            if row[l]:
                donors |= ssg[l]
        link_ids.append(link.id)
        link_owner.append(link.owner)
        rate.append(scenario.link_rate_per_hz(link))
        xi.append(share if any(row) else 0.0)
        offered.append(row)
        eta.append(
            tuple(scenario.min_throughput_bps(link.owner, sid) for sid in service_ids)
        )
        price.append(
            tuple(scenario.price_per_bit(link.owner, sid) for sid in service_ids)
        )
        budget.append(sum(budget_of[j] for j in donors))

    if variant == "s1":
        budget = [0.0] * len(budget)
        budget_of = {i: 0.0 for i in budget_of}
    elif variant == "s2":
        xi = [0.0] * len(xi)

    problem = SlicingProblem(
        link_ids=tuple(link_ids),
        link_owner=tuple(link_owner),
        service_ids=service_ids,
        members=members,
        mno_budget_hz=tuple(budget_of[i] for i in members),
        rate_bps_hz=tuple(rate),
        access=tuple(xi),
        budget_hz=tuple(budget),
        offered=tuple(offered),
        min_rate_bps=tuple(tuple(r) for r in eta),
        price_per_bit=tuple(tuple(r) for r in price),
        unlicensed_hz=scenario.band.unlicensed_bandwidth_hz,
        ssg=ssg,
        variant=variant,
        aggregate_cap_hz=sum(budget_of.values()) if aggregate else None,
    )
    if coalition is not None:
        problem = problem.restrict(coalition)
    return problem


def as_variant(problem: SlicingProblem, variant: str) -> SlicingProblem:
    """Rewrite a problem under another deployment variant.

    ``s1`` zeroes every licensed budget, ``s2`` zeroes every airtime
    entitlement, ``s3`` returns the problem with both resources intact.
    Only the resource caps change; tariffs and floors stay put.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "s1":
        zeros = (0.0,) * problem.n_links
        cap = 0.0 if problem.aggregate_cap_hz is not None else None
        return replace(
            problem,
            variant=variant,
            budget_hz=zeros,
            mno_budget_hz=(0.0,) * len(problem.members),
            aggregate_cap_hz=cap,
        )
    if variant == "s2":
        return replace(problem, variant=variant, access=(0.0,) * problem.n_links)
    return replace(problem, variant=variant)


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True)
class SlicingSolution:
    """An allocation with its welfare and bookkeeping helpers.

    ``u_hz[k][l]`` is licensed bandwidth, ``alpha[k][l]`` the airtime
    fraction.  ``objective`` is the total revenue of the allocation,
    recomputed from the primal values rather than copied out of any
    solver's internal report.
    """

    problem: SlicingProblem
    u_hz: tuple[tuple[float, ...], ...]
    alpha: tuple[tuple[float, ...], ...]
    objective: float
    method: str
    flags: tuple[str, ...] = ()

    def throughput_bps(self, k: int, l: int) -> float:
        p = self.problem
        return (self.u_hz[k][l] + self.alpha[k][l] * p.unlicensed_hz) * p.rate_bps_hz[k]

    def pair_worth(self, k: int, l: int) -> float:
        """Revenue earned by slice ``l`` on link ``k``."""
        return self.problem.price_per_bit[k][l] * self.throughput_bps(k, l)

    def slice_worth(self, l: int) -> float:
        return sum(self.pair_worth(k, l) for k in range(self.problem.n_links))

    def mno_worth(self, mno_id: int) -> float:
        return sum(
            self.pair_worth(k, l)
            for k in self.problem.links_of(mno_id)
            for l in range(self.problem.n_services)
        )

    def licensed_rate_bps(self, l: int) -> float:
        p = self.problem
        return sum(self.u_hz[k][l] * p.rate_bps_hz[k] for k in range(p.n_links))

    def unlicensed_rate_bps(self, l: int) -> float:
        p = self.problem
        return sum(
            self.alpha[k][l] * p.unlicensed_hz * p.rate_bps_hz[k]
            for k in range(p.n_links)
        )

    def max_violation(self) -> float:
        """Largest constraint violation, normalized per family scale.

        Bandwidth families are measured relative to the problem's
        bandwidth scale so a hertz of slack means the same thing in a
        20 MHz market as in a 20 kHz one.
        """
        p = self.problem
        u = np.array(self.u_hz, dtype=float).reshape(p.n_links, p.n_services)
        a = np.array(self.alpha, dtype=float).reshape(p.n_links, p.n_services)
        w_scale = max(
            p.unlicensed_hz, max(p.budget_hz, default=0.0), max(p.mno_budget_hz, default=0.0), 1.0
        )
        worst = 0.0
        for k in range(p.n_links):
            active = [l for l in range(p.n_services) if p.offered[k][l]]
            inactive = [l for l in range(p.n_services) if not p.offered[k][l]]
            if inactive:
                worst = max(worst, np.abs(u[k, inactive]).max() / w_scale)
                worst = max(worst, np.abs(a[k, inactive]).max())
            if active:
                worst = max(worst, abs(a[k, active].sum() - p.access[k]))
                worst = max(worst, (u[k].sum() - p.budget_hz[k]) / w_scale)
            worst = max(worst, -u[k].min() / w_scale, -a[k].min(), a[k].max() - 1.0)
            for l in active:
                floor = p.min_rate_bps[k][l]
                if floor > 0:
                    short = floor - self.throughput_bps(k, l)
                    worst = max(worst, short / (w_scale * p.rate_bps_hz[k]))
        if p.aggregate_cap_hz is not None:
            worst = max(worst, (u.sum() - p.aggregate_cap_hz) / w_scale)
        return float(worst)


def _zero_solution(problem: SlicingProblem, method: str) -> SlicingSolution:
    zeros = tuple((0.0,) * problem.n_services for _ in range(problem.n_links))
    return SlicingSolution(problem, zeros, zeros, 0.0, method)


def solution_from_arrays(
    problem: SlicingProblem,
    u: np.ndarray,
    alpha: np.ndarray,
    method: str,
    flags: tuple[str, ...] = (),
) -> SlicingSolution:
    """Package dense arrays as a solution, recomputing the objective."""
    u = np.asarray(u, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    worth = 0.0
    for k, l in problem.active_pairs():
        thru = (u[k, l] + alpha[k, l] * problem.unlicensed_hz) * problem.rate_bps_hz[k]
        worth += problem.price_per_bit[k][l] * thru
    return SlicingSolution(
        problem=problem,
        u_hz=tuple(tuple(float(x) for x in row) for row in u),
        alpha=tuple(tuple(float(x) for x in row) for row in alpha),
        objective=float(worth),
        method=method,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# exact oracle


def _linprog_once(
    problem: SlicingProblem,
    pairs: list[tuple[int, int]],
    with_qos: bool,
    with_budget: bool,
):
    n = len(pairs)
    p = problem
    c = np.zeros(2 * n)
    for j, (k, l) in enumerate(pairs):
        gain = p.price_per_bit[k][l] * p.rate_bps_hz[k]
        c[j] = -gain
        c[n + j] = -gain * p.unlicensed_hz

    rows_eq, rhs_eq = [], []
    links_active: dict[int, list[int]] = {}
    for j, (k, _) in enumerate(pairs):
        links_active.setdefault(k, []).append(j)
    for k, cols in links_active.items():
        row = np.zeros(2 * n)
        row[[n + j for j in cols]] = 1.0
        rows_eq.append(row)
        rhs_eq.append(p.access[k])

    rows_ub, rhs_ub = [], []
    if with_qos:
        for j, (k, l) in enumerate(pairs):
            floor = p.min_rate_bps[k][l]
            if floor > 0:
                row = np.zeros(2 * n)
                row[j] = -1.0
                row[n + j] = -p.unlicensed_hz
                rows_ub.append(row)
                rhs_ub.append(-floor / p.rate_bps_hz[k])
    if with_budget:
        for k, cols in links_active.items():
            row = np.zeros(2 * n)
            row[cols] = 1.0
            rows_ub.append(row)
            rhs_ub.append(p.budget_hz[k])
        if p.aggregate_cap_hz is not None:
            row = np.zeros(2 * n)
            row[:n] = 1.0
            rows_ub.append(row)
            rhs_ub.append(p.aggregate_cap_hz)

    bounds = [(0, None)] * n + [(0, 1)] * n
    return linprog(
        c,
        A_ub=np.array(rows_ub) if rows_ub else None,
        b_ub=np.array(rhs_ub) if rhs_ub else None,
        A_eq=np.array(rows_eq) if rows_eq else None,
        b_eq=np.array(rhs_eq) if rhs_eq else None,
        bounds=bounds,
        method="highs",
    )


def _blame_family(problem: SlicingProblem, pairs) -> str:
    """Name the cheapest relaxation that would restore feasibility.

    ``budget``: the market owns enough licensed spectrum, the pooling
    arrangement is what binds (every operator contributing its whole
    band to every link would fix it).  ``access``: granting the full
    channel (entitlement 1 on every link) would fix it.  ``qos``: the
    floors exceed even those caps, so the demand itself is the problem.
    """
    pool = sum(problem.mno_budget_hz)
    cap = None if problem.aggregate_cap_hz is None else pool * problem.n_links
    pooled = replace(
        problem,
        budget_hz=(pool,) * problem.n_links,
        aggregate_cap_hz=cap,
    )
    if _linprog_once(pooled, pairs, with_qos=True, with_budget=True).status == 0:
        return FAMILY_BUDGET
    opened = replace(problem, access=(1.0,) * problem.n_links)
    if _linprog_once(opened, pairs, with_qos=True, with_budget=True).status == 0:
        return FAMILY_ACCESS
    return FAMILY_QOS


def solve_lp_oracle(problem: SlicingProblem) -> SlicingSolution:
    """Solve the allocation LP exactly.

    Raises :class:`InfeasibleProblem` with the violated constraint
    family when the QoS floors cannot be met from the pooled spectrum.
    """
    pairs = problem.active_pairs()
    if not pairs:
        return _zero_solution(problem, "lp")
    res = _linprog_once(problem, pairs, with_qos=True, with_budget=True)
    if res.status == 2:
        family = _blame_family(problem, pairs)
        raise InfeasibleProblem(
            family,
            f"no feasible allocation for {problem.n_links} links"
            f" / {problem.n_services} slices ({problem.variant})",
        )
    if res.status != 0:
        raise RuntimeError(f"allocation solve failed with status {res.status}")
    n = len(pairs)
    u = np.zeros((problem.n_links, problem.n_services))
    alpha = np.zeros((problem.n_links, problem.n_services))
    for j, (k, l) in enumerate(pairs):
        u[k, l] = max(0.0, res.x[j])
        alpha[k, l] = min(1.0, max(0.0, res.x[n + j]))
    return solution_from_arrays(problem, u, alpha, "lp")
