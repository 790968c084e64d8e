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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def coalition_values(
    problem: SlicingProblem, coalitions, cache: dict | None = None
) -> list[float]:
    """Optimal welfare of the market restricted to each coalition.

    The coalitions not in ``cache`` are solved together in one stacked
    LP.  An infeasible restriction admits nothing and is worth zero;
    that convention keeps values defined for every coalition, mirroring
    an operator that cannot meet its own floors and so signs nobody up.
    """
    cache = {} if cache is None else cache
    keys = [frozenset(c) for c in coalitions]
    todo = [k for k in dict.fromkeys(keys) if k and k not in cache]
    solved = solve_lp_stack([problem.restrict(k) for k in todo])
    cache.update((k, 0.0 if s is None else s.objective) for k, s in zip(todo, solved))
    return [cache[k] if k else 0.0 for k in keys]


def coalition_value(problem: SlicingProblem, coalition, cache: dict | None = None) -> float:
    """Optimal welfare of the market restricted to ``coalition``."""
    return coalition_values(problem, [coalition], cache)[0]


def standalone_value(problem: SlicingProblem, mno_id: int, cache: dict | None = None) -> float:
    """What one operator earns alone: own links, own budget, own floors.

    The airtime shares stay as estimated on the full deployment; a
    lone operator still contends with everyone on the shared band.
    Infeasible or linkless operators earn zero.
    """
    if mno_id not in problem.members:
        raise KeyError(f"operator {mno_id} not in problem")
    return coalition_value(problem, {mno_id}, cache)


def _standalone_values(problem: SlicingProblem, cache: dict | None) -> tuple[float, ...]:
    """Every member's standalone value, the unsolved ones in one stacked LP."""
    return tuple(coalition_values(problem, [{i} for i in problem.members], cache))


# ---------------------------------------------------------------------------
# agreements


@dataclass(frozen=True)
class SlicingAgreement:
    """A slicing structure together with a utility split.

    The structure is the allocation itself (licensed draws and airtime
    fractions per link and slice); ``x[l][i]`` is the currency-per-
    second share of slice ``l``'s worth assigned to member ``i``.
    """

    problem: SlicingProblem
    u_hz: tuple[tuple[float, ...], ...]
    alpha: tuple[tuple[float, ...], ...]
    x: tuple[tuple[float, ...], ...]
    #: values of ``problem`` already solved for this agreement: the
    #: optimum of ``problem`` itself under ``None``, coalition values
    #: keyed like ``coalition_value``'s cache; a ``dataclasses.replace``
    #: copy starts empty
    _values: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def _values_for(self, problem: SlicingProblem | None) -> dict | None:
        """The solved values, when ``problem`` is this agreement's own."""
        return self._values if problem is None or problem is self.problem else None

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
    standalone: tuple[float, ...]


def compute_worth(agreement: SlicingAgreement, problem: SlicingProblem | None = None) -> WorthReport:
    """Evaluate the worth sums of an agreement.

    The agreement must be feasible for the problem; an allocation that
    breaks budgets or floors has no defined worth to divide.
    """
    p = agreement.problem if problem is None else problem
    sol = solution_from_arrays(p, agreement.u_hz, agreement.alpha, "agreement")
    violation = sol.max_violation()
    if violation > EPS_REL:
        raise ValueError(f"infeasible agreement: violation {violation:.3e}")
    cache = agreement._values_for(problem)
    return WorthReport(
        service_ids=p.service_ids,
        members=p.members,
        slice_worth=tuple(sol.slice_worth(l) for l in range(p.n_services)),
        mno_worth=tuple(sol.mno_worth(i) for i in p.members),
        total=sol.objective,
        standalone=_standalone_values(p, cache),
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


def check_core(agreement: SlicingAgreement, problem: SlicingProblem | None = None) -> CoreVerdict:
    """Check a split for efficiency and individual rationality.

    ``in_core`` holds when the split hands out the full optimal welfare
    and pays every member at least its standalone value.  Coalitions of
    two or more members short of the grand coalition are not checked,
    so with three or more operators a split can pass while some such
    coalition would rather walk away; with two operators the check is
    the whole core condition.  Efficiency of the per-slice split
    (shares summing to the slice worth) is a structural precondition
    and raises on violation.
    """
    p = agreement.problem if problem is None else problem
    sol = agreement.as_solution()
    for l in range(p.n_services):
        worth = sol.slice_worth(l)
        allocated = sum(agreement.x[l])
        if abs(allocated - worth) > EFFICIENCY_REL * _scale(worth):
            raise ValueError(
                f"slice {p.service_ids[l]} splits {allocated!r}"
                f" of a worth of {worth!r}"
            )
    cache = agreement._values_for(problem)
    if cache is not None and None in cache:
        optimum = cache[None]
    else:
        optimum = solve_lp_oracle(p).objective
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
    for i, floor in zip(p.members, _standalone_values(p, cache)):
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


def default_division(
    problem: SlicingProblem,
    solution: SlicingSolution | None = None,
    rule: str = "egalitarian",
) -> SlicingAgreement:
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
    values: dict = {}
    if solution is None:
        solution = solve_lp_oracle(problem)
        values[None] = solution.objective
    v_star = solution.objective
    members = problem.members
    t = _standalone_values(problem, values)
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
    agreement = SlicingAgreement(
        problem=problem,
        u_hz=solution.u_hz,
        alpha=solution.alpha,
        x=tuple(x),
    )
    agreement._values.update(values)
    return agreement


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


def convexity_probe(problem: SlicingProblem, triples=None) -> ConvexityReport:
    """Verify increasing marginal value of joining larger coalitions.

    For every triple (C, N, O) with N a proper subset of O and both
    disjoint from C, the value added by C to O must be at least the
    value it adds to N.  Exhaustive enumeration by default, which is
    why membership is capped at five operators; pass explicit triples
    to sample larger games.
    """
    members = problem.members
    if triples is None:
        if len(members) > 5:
            raise ValueError("exhaustive probe capped at 5 operators; pass triples")
        triples = []
        for c_size in range(1, len(members) + 1):
            for c in combinations(members, c_size):
                rest = [i for i in members if i not in c]
                for o_size in range(1, len(rest) + 1):
                    for o in combinations(rest, o_size):
                        for n_size in range(0, o_size):
                            for n in combinations(o, n_size):
                                triples.append((frozenset(c), frozenset(n), frozenset(o)))

    checked = []
    for c, n, o in triples:
        c, n, o = frozenset(c), frozenset(n), frozenset(o)
        if not (n < o and not (c & o)):
            raise ValueError(f"bad triple: C={sorted(c)} N={sorted(n)} O={sorted(o)}")
        checked.append((c, n, o))
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
