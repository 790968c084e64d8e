"""Coalition analysis of the slicing market.

Operators that pool spectrum form a transferable-utility game: the
value of a coalition is the optimal welfare of the allocation problem
restricted to its members, links, and pooled budgets.  This module
evaluates slice worths, splits the grand-coalition surplus into
per-operator payoffs by the Shapley value, checks a split against the
core (no coalition, the grand one included, is worth more than it is
paid), and probes the convexity that puts the Shapley value in the core
(Shapley, "Cores of convex games", 1971).  A game that is not convex
may still have its Shapley split in the core; where it does not, the
check says which coalition blocks it.

Every game step reads its coalition values from one table per market,
filled in one pass, indexed by member bitmask and kept on the problem
(:attr:`~slicenet.problem.SlicingProblem.coalition_table`, from
:func:`~slicenet.problem.solve_lp_coalitions`, which refuses a market
of more than ``MAX_COALITION_MEMBERS`` operators before solving), so
the division and the convexity probe of one market share it.  An
agreement carries the grand coalition's solution it splits, its
optimum and the table its split is computed from, so the worth and
core checks read them and solve nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, inf

from .problem import SlicingProblem, SlicingSolution, solve_lp_oracle

#: Relative tolerance for welfare comparisons, tied to solver accuracy.
EPS_REL = 1e-6

#: Relative tolerance for per-slice efficiency of an emitted agreement.
EFFICIENCY_REL = 1e-9


def _scale(*values: float) -> float:
    return max(1.0, *(abs(v) for v in values))


class NoOperatorsError(ValueError):
    """A market with no operators has no coalition to value and nobody to
    pay, so every game step refuses it before solving anything."""


# ---------------------------------------------------------------------------
# coalition values


def _table(problem: SlicingProblem) -> tuple[float, ...]:
    """Every coalition's value by member bitmask, from the problem's own
    table.  An infeasible one admits nothing and is worth zero,
    mirroring an operator that cannot meet its own floors and so signs
    nobody up.  A market with no operators raises
    :class:`NoOperatorsError`."""
    if not problem.members:
        raise NoOperatorsError("the market has no operators, so there is no game to play")
    return tuple(0.0 if v is None else v for v in problem.coalition_table)


def coalition_values(problem: SlicingProblem, coalitions) -> list[float]:
    """Optimal welfare of the market restricted to each coalition, read
    from the market's coalition table: bit for bit the oracle's optimum
    on the restricted market, or zero where that has no feasible point.
    A coalition keeps the airtime shares estimated on the full
    deployment: a lone operator still contends with everyone on the
    shared band.
    """
    bit = {i: 1 << j for j, i in enumerate(problem.members)}
    masks = []
    for coalition in map(frozenset, coalitions):
        if not coalition <= bit.keys():
            raise ValueError(f"coalition {sorted(coalition)} not among members")
        masks.append(sum(bit[i] for i in coalition))
    table = _table(problem)
    return [table[mask] for mask in masks]


# ---------------------------------------------------------------------------
# agreements


@dataclass(frozen=True)
class SlicingAgreement:
    """A slicing structure, a utility split, and the values it splits.

    The structure is ``solution``, the allocation itself (licensed draws
    and airtime fractions per link and slice) with its problem;
    ``x[l][i]`` is the currency-per-second share of slice ``l``'s worth
    assigned to member ``i``.  ``optimum`` is the grand coalition's
    optimal welfare and ``values[mask]`` the value of the coalition
    whose bit ``j`` marks ``solution.problem.members[j]``, as
    :func:`default_division` solved them; a ``dataclasses.replace``
    copy keeps them.
    """

    solution: SlicingSolution
    x: tuple[tuple[float, ...], ...]
    optimum: float
    values: tuple[float, ...]

    @property
    def standalone(self) -> tuple[float, ...]:
        """``standalone[j]``: the value of member ``j`` alone."""
        return tuple(self.values[1 << j] for j in range(len(self.solution.problem.members)))

    def member_share(self, mno_id: int) -> float:
        j = self.solution.problem.members.index(mno_id)
        return sum(row[j] for row in self.x)

    def total_allocated(self) -> float:
        return sum(sum(row) for row in self.x)


@dataclass(frozen=True)
class WorthReport:
    """Worths of an agreement: per slice, per member, and overall."""

    service_ids: tuple[int, ...]
    members: tuple[int, ...]
    slice_worth: tuple[float, ...]
    mno_worth: tuple[float, ...]
    total: float


def compute_worth(agreement: SlicingAgreement) -> WorthReport:
    """Evaluate the worth sums of an agreement.

    The agreement must be feasible for its problem; an allocation that
    breaks budgets or floors has no defined worth to divide.
    """
    sol = agreement.solution
    p = sol.problem
    violation = sol.max_violation()
    if violation > EPS_REL:
        raise ValueError(f"infeasible agreement: violation {violation:.3e}")
    return WorthReport(
        service_ids=p.service_ids,
        members=p.members,
        slice_worth=tuple(sol.slice_worth(l) for l in range(p.n_services)),
        mno_worth=tuple(sol.mno_worth(i) for i in p.members),
        total=sol.objective,
    )


# ---------------------------------------------------------------------------
# core membership


@dataclass(frozen=True)
class CoreVerdict:
    """Stability verdict with its certificate.

    ``coalition`` is the coalition, as member ids, whose value most
    exceeds what the split pays its members, and ``excess`` is by how
    much; the split is blocked, by that coalition, when the excess is
    above the tolerance.
    """

    in_core: bool
    optimum: float
    coalition: frozenset[int]
    excess: float
    reason: str

    def __str__(self) -> str:
        return "in core" if self.in_core else f"not in core: {self.reason}"


def check_core(agreement: SlicingAgreement) -> CoreVerdict:
    """Check a split against every coalition's value.

    ``in_core`` holds when no non-empty coalition, the grand one
    included, is worth more than the split pays its members together,
    within ``EPS_REL`` of the optimum, with the values the agreement
    carries.  The grand coalition's row is efficiency and a lone
    member's is individual rationality.  Efficiency of the per-slice
    split (shares summing to the slice worth) is a structural
    precondition and raises on violation.
    """
    sol = agreement.solution
    p = sol.problem
    for l in range(p.n_services):
        worth = sol.slice_worth(l)
        allocated = sum(agreement.x[l])
        if abs(allocated - worth) > EFFICIENCY_REL * _scale(worth):
            raise ValueError(
                f"slice {p.service_ids[l]} splits {allocated!r}"
                f" of a worth of {worth!r}"
            )
    pay = [sum(column) for column in zip(*agreement.x)]
    # paid[mask]: what the members of the coalition ``mask`` are paid together
    paid = [0.0] * len(agreement.values)
    worst, excess = 0, -inf
    for mask in range(1, len(paid)):
        low = mask & -mask
        paid[mask] = paid[mask ^ low] + pay[low.bit_length() - 1]
        gap = agreement.values[mask] - paid[mask]
        if gap > excess:
            worst, excess = mask, gap
    coalition = frozenset(i for j, i in enumerate(p.members) if worst >> j & 1)
    reason = ""
    if excess > EPS_REL * _scale(agreement.optimum):
        reason = (
            f"operators {sorted(coalition)} are worth {agreement.values[worst]:.6g}"
            f" together but are paid {paid[worst]:.6g}"
        )
    return CoreVerdict(
        in_core=not reason,
        optimum=agreement.optimum,
        coalition=coalition,
        excess=excess,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# division


def default_division(problem: SlicingProblem) -> SlicingAgreement:
    """Split the optimal welfare into per-member payoffs by the Shapley
    value.

    Each member is paid its marginal value v(S∪{i}) − v(S) averaged over
    the orders in which the members can join: over every coalition S
    without it, weighted by |S|!·(m−|S|−1)!/m!, read from the market's
    coalition table.  The payoffs sum to the grand coalition's value,
    and lie in the core of every convex game.

    Per-member totals are spread over slices in proportion to slice
    worths, keeping the per-slice split efficient.
    """
    # the table first, so a market with no operators or too many for the
    # table is refused unsolved
    values = _table(problem)
    solution = solve_lp_oracle(problem)
    v_star = solution.objective
    m = len(problem.members)
    shares = [0.0] * m
    # the grand coalition, last, has no member left to join it
    for s in range(len(values) - 1):
        weight = 1.0 / (m * comb(m - 1, s.bit_count()))
        for j in range(m):
            if not s >> j & 1:
                shares[j] += weight * (values[s | 1 << j] - values[s])

    worths = map(solution.slice_worth, range(problem.n_services))
    fracs = [worth / v_star if v_star > 0 else 0.0 for worth in worths]
    return SlicingAgreement(
        solution=solution,
        x=tuple(tuple(s * frac for s in shares) for frac in fracs),
        optimum=v_star,
        values=values,
    )


# ---------------------------------------------------------------------------
# convexity probe


@dataclass(frozen=True)
class ConvexityViolation:
    joining: frozenset[int]
    smaller: frozenset[int]
    larger: frozenset[int]
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ConvexityReport:
    checked: int
    violations: tuple[ConvexityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def convexity_probe(problem: SlicingProblem) -> ConvexityReport:
    """Verify increasing marginal value of joining larger coalitions.

    Every coalition is read from one table of values by its bitmask of
    member positions.  The game is convex exactly when v(S∪{i,j}) −
    v(S∪{j}) ≥ v(S∪{i}) − v(S) for every S and every pair i < j outside
    it (Shapley, 1971).  Every such pair is checked; a violation is the
    triple ({i}, S, S∪{j}).
    """
    members = problem.members
    value = _table(problem)
    grand = len(value) - 1

    def ids(mask: int) -> frozenset[int]:
        return frozenset(i for j, i in enumerate(members) if mask >> j & 1)

    # among m members a triple's gap v(C∪O) − v(O) − v(C∪N) + v(N) sums
    # |C|·|O∖N| ≤ m²/4 pairwise gaps, so a pass here passes every triple at EPS_REL
    eps = EPS_REL * _scale(value[grand]) / max(1, len(members) ** 2 // 4)
    checked = 0
    violations = []
    for s in range(grand + 1):
        for i, j in combinations([1 << k for k in range(len(members)) if not s >> k & 1], 2):
            checked += 1
            lhs = value[s | i | j] - value[s | j]
            rhs = value[s | i] - value[s]
            if lhs < rhs - eps:
                violations.append(ConvexityViolation(ids(i), ids(s), ids(s | j), lhs, rhs))
    return ConvexityReport(checked=checked, violations=tuple(violations))
