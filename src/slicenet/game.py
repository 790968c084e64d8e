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
operators it is the full core condition.  The convexity probe
spot-checks the marginal-value inequalities instance by instance; a
convex game has a non-empty core, which says nothing about whether a
given split lies in it.

An agreement carries the two numbers its split is computed from, the
grand coalition's optimum and every member's standalone value, so the
worth and core checks read them and solve nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .problem import (
    SlicingProblem,
    SlicingSolution,
    solution_from_arrays,
    solve_lp_oracle,
    solve_lp_stack,
)

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

    Each distinct coalition is solved once, all of them together in one
    stacked LP.  An infeasible restriction admits nothing and is worth
    zero, and so is the empty coalition; that convention keeps values
    defined for every coalition, mirroring an operator that cannot meet
    its own floors and so signs nobody up.  A coalition keeps the
    airtime shares estimated on the full deployment: a lone operator
    still contends with everyone on the shared band.
    """
    keys = [frozenset(c) for c in coalitions]
    distinct = [k for k in dict.fromkeys(keys) if k]
    solved = solve_lp_stack([problem.restrict(k) for k in distinct])
    value = {k: 0.0 if s is None else s.objective for k, s in zip(distinct, solved)}
    return [value.get(k, 0.0) for k in keys]


# ---------------------------------------------------------------------------
# agreements


@dataclass(frozen=True)
class SlicingAgreement:
    """A slicing structure, a utility split, and the values it splits.

    The structure is the allocation itself (licensed draws and airtime
    fractions per link and slice); ``x[l][i]`` is the currency-per-
    second share of slice ``l``'s worth assigned to member ``i``.
    ``optimum`` is the grand coalition's optimal welfare and
    ``standalone[j]`` the value of member ``problem.members[j]`` alone,
    as :func:`default_division` solved them; a ``dataclasses.replace``
    copy keeps them.
    """

    problem: SlicingProblem
    u_hz: tuple[tuple[float, ...], ...]
    alpha: tuple[tuple[float, ...], ...]
    x: tuple[tuple[float, ...], ...]
    optimum: float
    standalone: tuple[float, ...]

    def as_solution(self) -> SlicingSolution:
        return solution_from_arrays(self.problem, self.u_hz, self.alpha, "agreement")

    def member_share(self, mno_id: int) -> float:
        j = self.problem.members.index(mno_id)
        return sum(self.x[l][j] for l in range(self.problem.n_services))

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
    p = agreement.problem
    sol = agreement.as_solution()
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
    p = agreement.problem
    sol = agreement.as_solution()
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
        problem=problem,
        u_hz=solution.u_hz,
        alpha=solution.alpha,
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

    For every triple (C, N, O) with N a proper subset of O and both
    disjoint from C, the value added by C to O must be at least the
    value it adds to N.  Every such triple is checked, which is why
    membership is capped at five operators.
    """
    members = problem.members
    if len(members) > 5:
        raise ValueError("exhaustive probe capped at 5 operators")
    checked = []
    for c_size in range(1, len(members) + 1):
        for c in combinations(members, c_size):
            rest = [i for i in members if i not in c]
            for o_size in range(1, len(rest) + 1):
                for o in combinations(rest, o_size):
                    for n_size in range(0, o_size):
                        for n in combinations(o, n_size):
                            checked.append((frozenset(c), frozenset(n), frozenset(o)))
    needed = [frozenset(members)] + [s for c, n, o in checked for s in (c | o, o, c | n, n)]
    value = dict(zip(needed, coalition_values(problem, needed)))
    eps = EPS_REL * _scale(value[frozenset(members)])
    violations = []
    for c, n, o in checked:
        lhs = value[c | o] - value[o]
        rhs = value[c | n] - value[n]
        if lhs < rhs - eps:
            violations.append(ConvexityViolation(c, n, o, lhs, rhs))
    return ConvexityReport(checked=len(checked), violations=tuple(violations))
