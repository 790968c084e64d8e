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
supermodularity on every coalition of a market of up to five
operators, pair by pair over one table of coalition values; a convex
game has a non-empty core, which says nothing about whether a given
split lies in it.

An agreement carries the grand coalition's solution it splits (whose
``u_hz`` and ``alpha`` are read-only ``(links, slices)`` arrays) and
the two numbers its split is computed from, the grand coalition's
optimum and every member's standalone value, so the worth and core
checks read them and solve nothing.
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


def coalition_values(problem: SlicingProblem, coalitions) -> list[float]:
    """Optimal welfare of the market restricted to each coalition.

    Each distinct non-empty coalition is solved once, in order of first
    appearance, all of them together in one pass that
    :func:`~slicenet.problem.solve_lp_coalitions` lays out from the
    market's arrays, with no per-coalition problem or solution.  A value
    is bit for bit the oracle's optimum on the restricted market, however
    many coalitions are asked beside it.  An infeasible restriction
    admits nothing and is worth zero, and so is the empty coalition;
    that convention keeps values defined for every coalition, mirroring
    an operator that cannot meet its own floors and so signs nobody up.
    A coalition keeps the airtime shares estimated on the full
    deployment: a lone operator still contends with everyone on the
    shared band.
    """
    keys = [frozenset(c) for c in coalitions]
    distinct = [k for k in dict.fromkeys(keys) if k]
    solved = solve_lp_coalitions(problem, problem.coalition_mask(distinct))
    value = {k: 0.0 if v is None else v for k, v in zip(distinct, solved)}
    return [value.get(k, 0.0) for k in keys]


# ---------------------------------------------------------------------------
# agreements


@dataclass(frozen=True)
class SlicingAgreement:
    """A slicing structure, a utility split, and the values it splits.

    The structure is ``solution``, the allocation itself (licensed draws
    and airtime fractions per link and slice) with its problem;
    ``x[l][i]`` is the currency-per-second share of slice ``l``'s worth
    assigned to member ``i``.  ``optimum`` is the grand coalition's
    optimal welfare and ``standalone[j]`` the value of member
    ``solution.problem.members[j]`` alone, as :func:`default_division`
    solved them; a ``dataclasses.replace`` copy keeps them.
    """

    solution: SlicingSolution
    x: tuple[tuple[float, ...], ...]
    optimum: float
    standalone: tuple[float, ...]

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
    if gap > eps:
        return CoreVerdict(
            in_core=False,
            optimum=optimum,
            welfare_gap=gap,
            failing_mno=None,
            reason=f"allocated welfare {total:.6g} short of optimum {optimum:.6g}",
        )
    for i, floor in zip(p.members, agreement.standalone):
        share = agreement.member_share(i)
        if share < floor - eps:
            return CoreVerdict(
                in_core=False,
                optimum=optimum,
                welfare_gap=gap,
                failing_mno=i,
                reason=(
                    f"operator {i} gets {share:.6g},"
                    f" below its standalone {floor:.6g}"
                ),
            )
    return CoreVerdict(
        in_core=True, optimum=optimum, welfare_gap=gap, failing_mno=None, reason=""
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
    solution = solve_lp_oracle(problem)
    v_star = solution.objective
    members = problem.members
    t = tuple(coalition_values(problem, [{i} for i in members]))
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

    x = []
    for l in range(problem.n_services):
        worth = solution.slice_worth(l)
        frac = worth / v_star if v_star > 0 else 0.0
        x.append(tuple(s * frac for s in shares))
    return SlicingAgreement(
        solution=solution,
        x=tuple(x),
        optimum=v_star,
        standalone=t,
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

    Every coalition is valued in one :func:`coalition_values` call, by
    its bitmask of member positions.  The game is convex exactly when
    v(S∪{i,j}) − v(S∪{j}) ≥ v(S∪{i}) − v(S) for every S and every pair
    i < j outside it (Shapley, 1971).  Every such pair is checked, hence
    the cap of five operators; a violation is the triple ({i}, S, S∪{j}).
    """
    members = problem.members
    if len(members) > 5:
        raise ValueError("exhaustive probe capped at 5 operators")

    def ids(mask: int) -> frozenset[int]:
        return frozenset(i for j, i in enumerate(members) if mask >> j & 1)

    grand = (1 << len(members)) - 1
    value = [0.0, *coalition_values(problem, map(ids, range(1, grand + 1)))]
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
