"""Graph-based channel-access estimation without long simulations.

An operator that knows which transmitters its links sense can predict
each link's share of the unlicensed channel from a small table of
measured contention subgraphs.  Every connected component of its
one-hop contention view is served in one order:

1. a component the table could hold (up to its largest entry) is
   read off its entry;
2. any other component, or one whose entry is missing, is pruned:
   its maximum independent sets (the states the contention process
   actually dwells in) are enumerated and vertices in none of them
   are dropped (they are dominated and rarely hold the channel); each
   surviving connected piece is read off the table;
3. a dominated vertex is read off the entry of the subgraph induced
   by itself plus the surviving pieces it senses, which is exactly
   the contention it faces in practice;
4. a piece or neighborhood the table misses, and a component above
   ``MIS_MAX_VERTICES`` vertices (too large to prune exactly), gets
   the equal share when fallback is allowed: 1 over its clique
   number, exact up to ``MIS_MAX_VERTICES`` vertices and a greedy
   lower bound above.  Without fallback such a miss is an error.

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
    "estimate_access",
    "value_of_rights",
]

PROV_TABLE = "table"
PROV_PRUNED = "pruned"
PROV_FALLBACK = "fallback"


class TableMissError(KeyError):
    """No table entry serves a graph.  ``key`` names the missing
    canonical key, or is ``None`` for a graph too large to label."""

    def __init__(self, key: str | None, message: str | None = None):
        super().__init__(message or f"no table entry for canonical key {key!r}")
        self.key = key


def subgraph_for_mno(graph: ContentionGraph, mno_id: int) -> ContentionGraph:
    """The operator's view: its own links plus everything they sense."""
    keep = 0
    for i, (v, m) in enumerate(zip(graph.vertices, graph.masks)):
        if v.owner == mno_id:
            keep |= m | 1 << i
    return graph.subgraph(keep)


def remove_mno(graph: ContentionGraph, removed) -> ContentionGraph:
    """Counterfactual graph with the given operators off the band.

    ``removed`` is an operator id or an iterable of them.  Unowned
    (Wi-Fi) vertices are never removed.
    """
    if isinstance(removed, int):
        removed = {removed}
    removed = set(removed)
    stays = [v.owner is None or v.owner not in removed for v in graph.vertices]
    return graph.subgraph(sum(1 << i for i, keep in enumerate(stays) if keep))


def _mis_positions(graph: ContentionGraph) -> int:
    """Bitmask of the positions of every vertex in a maximum independent
    set of the connected ``graph``."""
    survivors = set().union(*maximum_independent_sets(graph))
    return sum(1 << i for i, vid in enumerate(graph.ids) if vid in survivors)


@dataclass(frozen=True)
class AccessEstimate:
    """Per-vertex channel-access estimates with their provenance.

    Provenance is ``table`` for a vertex read off the entry of its
    component or of its piece that survives pruning, ``pruned`` for a
    dominated vertex read off the entry of its local neighborhood, and
    ``fallback`` for the equal-share heuristic on graphs the table
    cannot cover.
    """

    access: dict[str, float]
    provenance: dict[str, str]


def _greedy_clique_number(graph: ContentionGraph) -> int:
    """Deterministic lower bound, for components too big to solve
    exactly."""
    masks, ids = graph.masks, graph.ids
    order = sorted(range(len(ids)), key=lambda i: (-masks[i].bit_count(), ids[i]))
    best = 1
    for seed in order:
        # grow the clique by every vertex, in order, that senses all of it
        size, common = 1, masks[seed]
        for i in order:
            if common >> i & 1:
                size += 1
                common &= masks[i]
        best = max(best, size)
    return best


def _equal_share(comp: ContentionGraph):
    # 1 over the clique number: exact up to MIS_MAX_VERTICES, a greedy
    # lower bound above
    try:
        cliques = clique_number(comp)
    except GraphTooLargeError:
        cliques = _greedy_clique_number(comp)
    share = 1.0 / cliques
    return {v.id: share for v in comp.vertices}, PROV_FALLBACK


def _estimate_component(
    graph: ContentionGraph, table: AccessTable, reach: int, fallback: bool, prune: bool = True
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-vertex access and provenance of a connected graph: a whole
    component, or (``prune`` off) a piece that survives its pruning or
    a dominated vertex's neighborhood in it."""
    n = len(graph.vertices)
    if n <= reach:
        form = canonical_form(graph)
        entry = table.lookup(form)
        if entry is not None:
            access = {v.id: entry.access[form.to_canon[i]] for i, v in enumerate(graph.vertices)}
            return access, dict.fromkeys(access, PROV_TABLE)
    # a piece or neighborhood is not pruned again, and a component
    # above MIS_MAX_VERTICES cannot be pruned exactly
    if fallback and (not prune or n > MIS_MAX_VERTICES):
        access, kind = _equal_share(graph)
        return access, dict.fromkeys(access, kind)
    if not prune:
        if n > CANONICAL_MAX_VERTICES:
            raise TableMissError(
                None, f"no table entry for a {n}-vertex graph: the table reaches {reach} vertices"
            )
        # labeled only to name the missing key: a memo hit when the
        # table could hold the graph, past its reach a fresh label
        raise TableMissError(canonical_form(graph).key)

    access, prov = {}, {}
    kept = _mis_positions(graph)
    pieces = graph.component_masks(kept)  # the positions of each surviving piece
    for piece in pieces:
        vals, kinds = _estimate_component(
            graph.subgraph(piece), table, reach, fallback, prune=False
        )
        access.update(vals)
        prov.update(kinds)
    for i, (vid, m) in enumerate(zip(graph.ids, graph.masks)):
        if kept >> i & 1:
            continue
        # a dominated vertex contends with the surviving pieces it
        # senses; estimate it inside that induced neighborhood (the
        # pieces are disjoint and exclude it, so the sum is the union)
        local = sum((piece for piece in pieces if piece & m), 1 << i)
        vals, kinds = _estimate_component(
            graph.subgraph(local), table, reach, fallback, prune=False
        )
        access[vid] = vals[vid]
        prov[vid] = PROV_PRUNED if kinds[vid] == PROV_TABLE else PROV_FALLBACK
    return access, prov


def estimate_access(
    graph: ContentionGraph, table: AccessTable, fallback: bool = False
) -> AccessEstimate:
    """Estimate every vertex's channel access from the measured table.

    Each connected component is served in one order.  A component the
    table could hold (up to its largest entry, at most
    ``CANONICAL_MAX_VERTICES``) is labeled and read off its entry.  Any
    other component, or one whose entry is missing, is pruned to its
    maximum independent sets; each surviving piece, and each dominated
    vertex's neighborhood, is then read off the table in the same way.
    Where that misses, ``fallback`` gives the equal share, flagged in
    the provenance: 1 over the clique number, exact up to
    ``MIS_MAX_VERTICES`` vertices and a greedy lower bound above.  A
    component above ``MIS_MAX_VERTICES`` cannot be pruned exactly and,
    with ``fallback``, gets the equal share whole.  Without
    ``fallback`` a miss raises ``TableMissError``, naming the canonical
    key, or the size of a piece or neighborhood too large to label and
    the table's reach; a component above ``MIS_MAX_VERTICES`` raises
    ``GraphTooLargeError``.  Graphs larger than the table's
    largest entry are never labeled with ``fallback`` on: no entry
    could match them.
    """
    # the largest graph the table can serve, as far as labeling goes
    reach = min(
        max((e.size for e in table.entries.values()), default=0), CANONICAL_MAX_VERTICES
    )
    access: dict[str, float] = {}
    prov: dict[str, str] = {}
    for comp in graph.components():
        vals, kinds = _estimate_component(comp, table, reach, fallback)
        access.update(vals)
        prov.update(kinds)
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
