"""Graph-based channel-access estimation without long simulations.

An operator that knows which transmitters its links sense can predict
each link's share of the unlicensed channel from a small table of
measured contention subgraphs.  Every connected component of its
one-hop contention view that the table stores is read off directly.
A component too large to be stored is reduced first:

1. enumerate its maximum independent sets (the states the contention
   process actually dwells in),
2. drop vertices that appear in none of them (they are dominated and
   rarely hold the channel),
3. look up each surviving connected piece in the table.

Dominated vertices still get an estimate: they are looked up inside
the subgraph induced by themselves plus the surviving pieces they
sense, which is exactly the contention they face in practice.

The value-of-rights report monetizes the difference between such
estimates with and without a set of operators present on the band.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coexist import AccessTable, build_contention_graph
from .contention import (
    CANONICAL_MAX_VERTICES,
    MIS_MAX_VERTICES,
    ContentionGraph,
    GraphTooLargeError,
    canonical_form,
    clique_number,
    maximum_independent_sets,
)
from .scenario import Scenario

__all__ = [
    "TableMissError",
    "AccessEstimate",
    "VorReport",
    "subgraph_for_mno",
    "remove_mno",
    "maximum_independent_sets",
    "prune_to_mis",
    "estimate_access",
    "value_of_rights",
]

PROV_TABLE = "table"
PROV_PRUNED = "pruned"
PROV_FALLBACK = "fallback"


class TableMissError(KeyError):
    def __init__(self, key: str):
        super().__init__(f"no table entry for canonical key {key!r}")
        self.key = key


def subgraph_for_mno(graph: ContentionGraph, mno_id: int) -> ContentionGraph:
    """The operator's view: its own links plus everything they sense."""
    own = {v.id for v in graph.vertices if v.owner == mno_id}
    keep = set(own)
    for vid in own:
        keep |= graph.neighbors(vid)
    return graph.induced(keep)


def remove_mno(graph: ContentionGraph, removed) -> ContentionGraph:
    """Counterfactual graph with the given operators off the band.

    ``removed`` is an operator id or an iterable of them.  Unowned
    (Wi-Fi) vertices are never removed.
    """
    if isinstance(removed, int):
        removed = {removed}
    removed = set(removed)
    keep = [v.id for v in graph.vertices if v.owner is None or v.owner not in removed]
    return graph.induced(keep)


def prune_to_mis(graph: ContentionGraph) -> ContentionGraph:
    """Induced subgraph on the union of all maximum independent sets."""
    keep: set[str] = set()
    for comp in graph.components():
        for mis in maximum_independent_sets(comp):
            keep.update(mis)
    return graph.induced(keep)


@dataclass(frozen=True)
class AccessEstimate:
    """Per-vertex channel-access estimates with their provenance.

    Provenance is ``table`` for a direct component lookup, ``pruned``
    for a dominated vertex estimated inside its local neighborhood,
    and ``fallback`` for the equal-share heuristic on graphs the table
    cannot cover.
    """

    access: dict[str, float]
    provenance: dict[str, str]


def _greedy_clique_number(graph: ContentionGraph) -> int:
    """Deterministic lower bound, for components too big to solve
    exactly."""
    best = 1
    degree = {vid: graph.degree(vid) for vid in graph.ids}
    order = sorted(graph.ids, key=lambda vid: (-degree[vid], vid))
    for seed in order:
        clique = {seed}
        for vid in order:
            if vid not in clique and all(graph.has_edge(vid, u) for u in clique):
                clique.add(vid)
        best = max(best, len(clique))
    return best


def _equal_share(comp: ContentionGraph):
    try:
        cliques = clique_number(comp)
    except GraphTooLargeError:
        cliques = _greedy_clique_number(comp)
    share = 1.0 / cliques
    return {v.id: share for v in comp.vertices}, PROV_FALLBACK


def _table_reach(table: AccessTable) -> int:
    """Largest component the table can serve: its largest entry, as
    far as canonical labeling goes."""
    largest = max((e.size for e in table.entries.values()), default=0)
    return min(largest, CANONICAL_MAX_VERTICES)


def _read_table(comp: ContentionGraph, form, entry) -> dict[str, float]:
    return {v.id: entry.access[form.to_canon[i]] for i, v in enumerate(comp.vertices)}


def _lookup_component(
    comp: ContentionGraph, table: AccessTable, reach: int, fallback: bool, form=None
):
    """Per-vertex access of a connected graph from the table, or the
    equal-share heuristic when allowed.  ``form`` is the graph's
    canonical form when the caller has it already."""
    n = len(comp.vertices)
    if n <= reach or (not fallback and n <= CANONICAL_MAX_VERTICES):
        # past the table's reach, labeled only to name the missing key
        form = form if form is not None else canonical_form(comp)
        entry = table.lookup(form)
        if entry is not None:
            return _read_table(comp, form, entry), PROV_TABLE
        if not fallback:
            raise TableMissError(form.key)
    elif not fallback:
        raise GraphTooLargeError(n, CANONICAL_MAX_VERTICES, "table lookup")
    return _equal_share(comp)


def _estimate_component(
    comp: ContentionGraph,
    table: AccessTable,
    reach: int,
    fallback: bool,
    access: dict[str, float],
    prov: dict[str, str],
) -> None:
    # a component the table stores is read off as measured; reduction
    # below only approximates that measurement, so it is a last resort
    form = None
    if len(comp.vertices) <= reach:
        form = canonical_form(comp)
        entry = table.lookup(form)
        if entry is not None:
            for vid, x in _read_table(comp, form, entry).items():
                access[vid] = x
                prov[vid] = PROV_TABLE
            return
    if fallback and len(comp.vertices) > MIS_MAX_VERTICES:
        # too large to prune exactly: the equal share is all there is
        vals, kind = _equal_share(comp)
        access.update(vals)
        prov.update(dict.fromkeys(vals, kind))
        return

    pruned = prune_to_mis(comp)
    survivors = set(pruned.ids)
    pieces = pruned.components()
    whole = len(survivors) == len(comp.vertices)
    for piece in pieces:
        # pruning that drops nothing leaves the component, form and all
        vals, kind = _lookup_component(
            piece, table, reach, fallback, form if whole else None
        )
        for vid, x in vals.items():
            access[vid] = x
            prov[vid] = kind

    piece_of = {}
    for ci, piece in enumerate(pieces):
        for vid in piece.ids:
            piece_of[vid] = ci
    for v in comp.vertices:
        if v.id in survivors:
            continue
        # a dominated vertex contends with the surviving pieces it
        # senses; estimate it inside that induced neighborhood
        touched = {piece_of[u] for u in comp.neighbors(v.id) if u in survivors}
        local = {v.id}
        for ci in touched:
            local.update(pieces[ci].ids)
        sub = comp.induced(local)
        vals, kind = _lookup_component(sub, table, reach, fallback)
        access[v.id] = vals[v.id]
        prov[v.id] = PROV_PRUNED if kind == PROV_TABLE else PROV_FALLBACK


def estimate_access(
    graph: ContentionGraph, table: AccessTable, fallback: bool = False
) -> AccessEstimate:
    """Estimate every vertex's channel access from the measured table.

    Raises ``TableMissError`` (naming the canonical key) or
    ``GraphTooLargeError`` when a lookup cannot be served and
    ``fallback`` is off; with ``fallback`` on, uncovered components
    get the clique-number reciprocal, flagged in the provenance.
    Components larger than the table's largest entry are never
    labeled when ``fallback`` is on: no entry could match them.
    """
    access: dict[str, float] = {}
    prov: dict[str, str] = {}
    reach = _table_reach(table)
    for comp in graph.components():
        _estimate_component(comp, table, reach, fallback, access, prov)
    return AccessEstimate(access=access, provenance=prov)


@dataclass(frozen=True)
class VorReport:
    """Monetized value to one operator of other operators ceasing
    unlicensed operation."""

    mno: int
    removed: tuple[int, ...]
    access: dict[str, float]
    access_removed: dict[str, float]
    value: float
    value_removed: float

    @property
    def gain(self) -> float:
        return self.value_removed - self.value


def value_of_rights(
    scenario: Scenario,
    table: AccessTable,
    mno_id: int,
    removed,
    fallback: bool = False,
) -> VorReport:
    """Estimate what operator ``mno_id`` gains when ``removed``
    operators leave the unlicensed band.

    A link's unlicensed capacity is monetized at the operator's best
    admissible unit price over its services, which upper-bounds the
    value the slicing stage can extract from that airtime.
    """
    if isinstance(removed, int):
        removed = {removed}
    removed = frozenset(removed)
    if mno_id in removed:
        raise ValueError(f"operator {mno_id} cannot be removed from its own report")
    graph = build_contention_graph(scenario)
    base = estimate_access(subgraph_for_mno(graph, mno_id), table, fallback)
    counter = estimate_access(
        subgraph_for_mno(remove_mno(graph, removed), mno_id), table, fallback
    )

    best_price = max(
        (scenario.price_per_bit(mno_id, s.id) for s in scenario.services),
        default=0.0,
    )
    bu = scenario.band.unlicensed_bandwidth_hz

    def monetize(est: AccessEstimate) -> float:
        total = 0.0
        for link in scenario.links_of(mno_id):
            rate = scenario.link_rate_per_hz(link)
            total += est.access[link.id] * bu * rate * best_price
        return total

    return VorReport(
        mno=mno_id,
        removed=tuple(sorted(removed)),
        access={k: v for k, v in base.access.items()},
        access_removed={k: v for k, v in counter.access.items()},
        value=monetize(base),
        value_removed=monetize(counter),
    )
