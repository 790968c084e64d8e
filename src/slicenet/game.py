"""Coalition analysis of the slicing market.

Operators that pool spectrum form a transferable-utility game: the
value of a coalition is the optimal welfare of the allocation problem
restricted to its members, links, and pooled budgets.  This module
evaluates slice worths, splits the grand-coalition surplus into
per-operator payoffs, checks a proposed split against part of the
core's conditions, and probes the convexity structure that guarantees
a stable split exists.

The stability check (:func:`check_core`) tests two of the core's
conditions: efficiency (the split hands out the full optimal welfare)
and individual rationality (every operator gets at least its
standalone value).  It does not test the coalitions of two or more
operators short of the grand coalition, so it is necessary for core
membership but not sufficient: with three or more operators a
coalition can block a split that passes it (market 76 drawn by
``random_problem(default_rng(7), feasible_for="coalitions")``: the
egalitarian split pays operators {1, 2, 4} 2771.4 against their joint
value 2848.0, and the check reports it in the core).  With two
operators it is the full core condition.  The convexity probe tests
supermodularity on every coalition, pair by pair; a convex game has a
non-empty core, which says nothing about whether a given split lies in
it.

Each game step reads its coalition values from one table per market,
filled in one pass and indexed by member bitmask
(:func:`~slicenet.problem.solve_lp_coalitions`, which refuses a market
of more than ``MAX_COALITION_MEMBERS`` operators before solving).  An
agreement carries the grand coalition's solution it splits, its
optimum and the table its split is computed from, so the worth and
core checks read them and solve nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .problem import SlicingProblem, SlicingSolution, solve_lp_coalitions, solve_lp_oracle

#: Relative tolerance for welfare comparisons, tied to solver accuracy.
EPS_REL = 1e-6

#: Relative tolerance for per-slice efficiency of an emitted agreement.
EFFICIENCY_REL = 1e-9


def _scale(*values: float) -> float:
    return max(1.0, *(abs(v) for v in values))


# ---------------------------------------------------------------------------
# coalition values


def _table(problem: SlicingProblem) -> tuple[float, ...]:
    """Every coalition's value by member bitmask.  An infeasible one
    admits nothing and is worth zero, mirroring an operator that cannot
    meet its own floors and so signs nobody up."""
    return tuple(0.0 if v is None else v for v in solve_lp_coalitions(problem))


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

    ``welfare_gap`` is how far total allocated utility falls short of
    the grand-coalition optimum (nonpositive when efficient), and
    ``failing_mno`` names an operator paid below its standalone value,
    if any.
    """

    in_core: bool
    optimum: float
    welfare_gap: float
    failing_mno: int | None
    reason: str

    def __str__(self) -> str:
        return "in core" if self.in_core else f"not in core: {self.reason}"


def check_core(agreement: SlicingAgreement) -> CoreVerdict:
    """Check a split for efficiency and individual rationality.

    ``in_core`` holds when the split hands out the full optimal welfare
    and pays every member at least its standalone value, both as the
    agreement carries them.  Coalitions of
    two or more members short of the grand coalition are not checked,
    so with three or more operators a split can pass while some such
    coalition would rather walk away; with two operators the check is
    the whole core condition.  Efficiency of the per-slice split
    (shares summing to the slice worth) is a structural precondition
    and raises on violation.
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
    optimum = agreement.optimum
    eps = EPS_REL * _scale(optimum)
    total = agreement.total_allocated()
    gap = optimum - total
    failing, reason = None, ""
    if gap > eps:
        reason = f"allocated welfare {total:.6g} short of optimum {optimum:.6g}"
    else:
        for i, floor in zip(p.members, agreement.standalone):
            share = agreement.member_share(i)
            if share < floor - eps:
                failing = i
                reason = f"operator {i} gets {share:.6g}, below its standalone {floor:.6g}"
                break
    return CoreVerdict(
        in_core=not reason, optimum=optimum, welfare_gap=gap, failing_mno=failing, reason=reason
    )


# ---------------------------------------------------------------------------
# division rules

DIVISION_RULES = ("egalitarian", "proportional")


def default_division(problem: SlicingProblem, rule: str = "egalitarian") -> SlicingAgreement:
    """Split the optimal welfare into per-member payoffs.

    Every member first receives its standalone value; the cooperative
    surplus on top is divided equally (default) or in proportion to
    the standalone values.  Either way each member weakly improves on
    going it alone, so the result sits in the core whenever the
    surplus is nonnegative; pooling can only widen the feasible set,
    so a meaningfully negative surplus means the inputs are broken,
    and an assertion guards it.

    Per-member totals are spread over slices in proportion to slice
    worths, keeping the per-slice split efficient.
    """
    if rule not in DIVISION_RULES:
        raise ValueError(f"unknown division rule {rule!r}")
    # the table first, so a market too large for it is refused unsolved
    values = _table(problem)
    solution = solve_lp_oracle(problem)
    v_star = solution.objective
    members = problem.members
    t = tuple(values[1 << j] for j in range(len(members)))
    surplus = v_star - sum(t)
    assert surplus >= -EPS_REL * _scale(v_star), (
        f"optimal welfare {v_star} below summed standalone values {sum(t)}"
    )
    surplus = max(0.0, surplus)
    if rule == "egalitarian":
        shares = [ti + surplus / len(members) for ti in t]
    else:
        base = sum(t)
        if base > 0:
            shares = [ti * (v_star / base) for ti in t]
        else:
            shares = [v_star / len(members) for _ in members]

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
