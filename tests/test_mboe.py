"""Table-driven access estimation: pruning, provenance, counterfactuals."""

from dataclasses import replace

import pytest

import slicenet.mboe as mboe
from slicenet.coexist import build_contention_graph
from slicenet.contention import (
    CANONICAL_MAX_VERTICES,
    ContentionGraph,
    GraphTooLargeError,
    Vertex,
    canonical_form,
)
from slicenet.mboe import (
    TableMissError,
    _mis_positions,
    estimate_access,
    remove_mno,
    subgraph_for_mno,
    value_of_rights,
)
from slicenet.topology import generate_topology
from slicenet.scenario import (
    BandPlan,
    Link,
    Mno,
    Node,
    Scenario,
    ServiceType,
)


def _path(ids, techs=None):
    techs = techs or ["laa"] * len(ids)
    verts = [
        Vertex(ids[i], techs[i], i + 1 if techs[i] == "laa" else None)
        for i in range(len(ids))
    ]
    edges = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    return ContentionGraph.build(verts, edges)


def _clique(n, tech="laa"):
    ids = [f"c{i}" for i in range(n)]
    verts = [Vertex(i, tech, k + 1) for k, i in enumerate(ids)]
    edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    return ContentionGraph.build(verts, edges)


def test_prune_path_keeps_alternating_vertices():
    g = _path(["a", "b", "c"])
    pruned = g.subgraph(_mis_positions(g))
    assert sorted(pruned.ids) == ["a", "c"]
    assert pruned.edges == frozenset()


def test_prune_star_keeps_leaves():
    verts = [Vertex("hub", "wifi")] + [Vertex(f"l{i}", "laa", i) for i in range(1, 5)]
    g = ContentionGraph.build(verts, [("hub", f"l{i}") for i in range(1, 5)])
    pruned = g.subgraph(_mis_positions(g))
    assert sorted(pruned.ids) == ["l1", "l2", "l3", "l4"]


def test_prune_keeps_every_maximum_set():
    # a 4-cycle has two maximum independent sets; both survive
    ids = ["a", "b", "c", "d"]
    g = ContentionGraph.build(
        [Vertex(i, "laa", k + 1) for k, i in enumerate(ids)],
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
    )
    assert sorted(g.subgraph(_mis_positions(g)).ids) == ids


def test_estimate_small_component_reads_table(table3):
    g = _path(["a", "b", "c"], ["laa", "wifi", "laa"])
    est = estimate_access(g, table3)
    assert set(est.access) == {"a", "b", "c"}
    assert all(kind == "table" for kind in est.provenance.values())
    # ends dominate the middle in an alternating pattern
    assert est.access["a"] > est.access["b"]
    assert est.access["c"] > est.access["b"]


def test_estimate_isolated_vertex_near_full_share(table3):
    g = ContentionGraph.build([Vertex("solo", "laa", 1)], [])
    est = estimate_access(g, table3)
    assert est.provenance["solo"] == "table"
    assert est.access["solo"] > 0.95


def test_estimate_prunes_oversized_component(table3):
    g = _path(["a", "b", "c", "d", "e"])
    est = estimate_access(g, table3)
    assert est.provenance["a"] == "table"
    assert est.provenance["c"] == "table"
    assert est.provenance["e"] == "table"
    assert est.provenance["b"] == "pruned"
    assert est.provenance["d"] == "pruned"
    # dominated vertices get squeezed below their dominating neighbors
    assert est.access["b"] < est.access["a"]
    assert est.access["b"] < est.access["c"]


def test_estimate_miss_raises_without_fallback(table3):
    with pytest.raises(TableMissError):
        estimate_access(_clique(4), table3)


def test_estimate_fallback_equal_share(table3):
    est = estimate_access(_clique(4), table3, fallback=True)
    assert all(kind == "fallback" for kind in est.provenance.values())
    for x in est.access.values():
        assert x == pytest.approx(0.25)


def test_estimate_oversized_clique(table3):
    big = _clique(7)
    # pruning keeps the whole clique as one piece, past labeling
    with pytest.raises(TableMissError, match="7-vertex graph: the table reaches 3 vertices"):
        estimate_access(big, table3)
    est = estimate_access(big, table3, fallback=True)
    for x in est.access.values():
        assert x == pytest.approx(1.0 / 7.0)


def test_fallback_covers_components_past_exact_pruning(table3):
    # a 22-cycle is too large for independent-set enumeration
    ids = [f"c{i}" for i in range(22)]
    cycle = ContentionGraph.build(
        [Vertex(i, "laa", 1) for i in ids], [(ids[i], ids[i - 1]) for i in range(22)]
    )
    est = estimate_access(cycle, table3, fallback=True)
    assert set(est.provenance.values()) == {"fallback"}
    assert all(x == pytest.approx(0.5) for x in est.access.values())
    with pytest.raises(GraphTooLargeError):
        estimate_access(cycle, table3)


def test_subgraph_for_mno_keeps_sensed_neighbors():
    g = _path(["a", "b", "c"], ["laa", "wifi", "laa"])
    view = subgraph_for_mno(g, 1)
    assert sorted(view.ids) == ["a", "b"]
    assert view.edges == frozenset({("a", "b")})


def test_remove_mno_never_touches_wifi():
    g = _path(["a", "b", "c"], ["laa", "wifi", "laa"])
    reduced = remove_mno(g, 1)
    assert sorted(reduced.ids) == ["b", "c"]
    reduced = remove_mno(g, {1, 3})
    assert sorted(reduced.ids) == ["b"]


def _contending_pair_scenario():
    services = (ServiceType(id=1, min_throughput_bps=1e6, price_per_bit=1e-6),)
    mnos = (Mno(id=1, licensed_bandwidth_hz=2e7), Mno(id=2, licensed_bandwidth_hz=2e7))
    nodes = (
        Node(id="b1", kind="laa", position_m=(0.0, 0.0), owner=1),
        Node(id="b2", kind="laa", position_m=(12.0, 0.0), owner=2),
    )
    links = (
        Link(id="b1u1", owner=1, node="b1", ue_position_m=(0.0, 30.0)),
        Link(id="b2u1", owner=2, node="b2", ue_position_m=(12.0, 30.0)),
    )
    return Scenario(
        services=services,
        mnos=mnos,
        nodes=nodes,
        links=links,
        band=BandPlan(unlicensed_bandwidth_hz=2e7),
    )


def test_value_of_rights_gain_positive_under_contention(table3):
    sc = _contending_pair_scenario()
    report = value_of_rights(sc, table3, mno_id=1, removed=2)
    assert report.gain > 0.0
    assert report.value_removed > report.value
    assert report.access_removed["b1u1"] > report.access["b1u1"]


def test_value_of_rights_rejects_self_removal(table3):
    sc = _contending_pair_scenario()
    with pytest.raises(ValueError):
        value_of_rights(sc, table3, mno_id=1, removed=1)


def _reference_lookup(comp, table, fallback):
    # labels every component up to CANONICAL_MAX_VERTICES, whatever
    # the table holds
    n = len(comp.vertices)
    if n <= CANONICAL_MAX_VERTICES:
        form = canonical_form(comp)
        entry = table.lookup(form)
        if entry is not None:
            return {v.id: entry.access[form.to_canon[i]] for i, v in enumerate(comp.vertices)}, "table"
        if not fallback:
            raise TableMissError(form.key)
    elif not fallback:
        reach = min(max(e.size for e in table.entries.values()), CANONICAL_MAX_VERTICES)
        raise TableMissError(
            None, f"no table entry for a {n}-vertex graph: the table reaches {reach} vertices"
        )
    return mboe._equal_share(comp)


def _induced(graph, ids):
    """The subgraph on the vertices in ``ids``, rebuilt from the id pairs."""
    return ContentionGraph.build(
        [v for v in graph.vertices if v.id in ids],
        [(a, b) for a, b in graph.edges if a in ids and b in ids],
    )


def _reference_estimate(graph, table, fallback):
    """The estimator as first written: table read, else prune and look
    up each surviving piece and each dominated vertex's neighborhood."""
    access, prov = {}, {}
    for comp in graph.components():
        if len(comp.vertices) <= CANONICAL_MAX_VERTICES:
            form = canonical_form(comp)
            entry = table.lookup(form)
            if entry is not None:
                for i, v in enumerate(comp.vertices):
                    access[v.id] = entry.access[form.to_canon[i]]
                    prov[v.id] = "table"
                continue
        pruned = comp.subgraph(_mis_positions(comp))
        pieces = pruned.components()
        for piece in pieces:
            vals, kind = _reference_lookup(piece, table, fallback)
            access.update(vals)
            prov.update(dict.fromkeys(vals, kind))
        for v in comp.vertices:
            if v.id in pruned.ids:
                continue
            local = {v.id}
            near = {b if a == v.id else a for a, b in comp.edges if v.id in (a, b)}
            for piece in pieces:
                if near & set(piece.ids):
                    local.update(piece.ids)
            vals, kind = _reference_lookup(_induced(comp, local), table, fallback)
            access[v.id] = vals[v.id]
            prov[v.id] = "pruned" if kind == "table" else "fallback"
    return access, prov


_DEPLOYMENTS = [
    # (kind, stations per operator, users per station, access points,
    # cell size): 7-vertex components of six links and an access point,
    # mixed 1-6-vertex components, and 4-5-vertex components
    ("two-mno-urban", 10, 6, 20, 200.0),
    ("uniform-random", 25, 3, 50, 150.0),
    ("two-mno-urban", 20, 4, 40, 200.0),
]


@pytest.mark.parametrize("deployment", _DEPLOYMENTS, ids=lambda d: d[0])
def test_fallback_labels_only_what_the_table_can_hold(deployment, table3, table5, monkeypatch):
    kind, bs, ues, aps, cell = deployment
    labeled = []

    def spy(graph):
        labeled.append(len(graph.vertices))
        return canonical_form(graph)

    monkeypatch.setattr(mboe, "canonical_form", spy)
    sizes = set()
    for seed in range(2):
        graph = build_contention_graph(generate_topology(
            kind, seed=seed, bs_per_mno=bs, ues_per_bs=ues, wifi_aps=aps, cell_size_m=cell
        ))
        for table, largest in ((table3, 3), (table5, 5)):
            for view in (graph, subgraph_for_mno(graph, 1), remove_mno(graph, 2)):
                labeled.clear()
                est = estimate_access(view, table, fallback=True)
                assert all(n <= largest for n in labeled)
                assert (est.access, est.provenance) == _reference_estimate(view, table, True)
                sizes.update(len(c.vertices) for c in view.components())
    assert max(sizes) > 3  # components past the smaller table are there to skip


def test_misses_without_fallback_name_the_same_key(table3):
    # a 4-cycle survives pruning whole, and a 7-clique is beyond labeling
    ids = ["a", "b", "c", "d"]
    cycle = ContentionGraph.build(
        [Vertex(i, "laa", k + 1) for k, i in enumerate(ids)],
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
    )
    # both misses share one type, whatever the size of what missed
    for graph in (cycle, _clique(7)):
        with pytest.raises(TableMissError) as new:
            estimate_access(graph, table3)
        with pytest.raises(TableMissError) as old:
            _reference_estimate(graph, table3, False)
        assert type(new.value) is type(old.value) is TableMissError
        assert str(new.value) == str(old.value)


def _without(table, graph):
    """A copy of ``table`` that lacks the entry of ``graph``."""
    key = canonical_form(graph).key
    entries = {k: e for k, e in table.entries.items() if k != key}
    assert len(entries) == len(table.entries) - 1
    return replace(table, entries=entries)


@pytest.mark.parametrize("fallback", [False, True], ids=["strict", "fallback"])
@pytest.mark.parametrize(
    "graph, missing",
    [
        # the component's own entry is gone; pruning keeps both
        # vertices, so its one piece is the component again
        (_path(["a", "b"]), _path(["a", "b"])),
        # the pieces a, c and e are in the table, but the 3-path that
        # is each dominated vertex's neighborhood is not
        (_path(["a", "b", "c", "d", "e"]), _path(["a", "b", "c"])),
    ],
    ids=["component", "neighborhood"],
)
def test_entry_missing_inside_the_reach(graph, missing, fallback, table3):
    table = _without(table3, missing)
    if not fallback:
        with pytest.raises(TableMissError) as new:
            estimate_access(graph, table)
        with pytest.raises(TableMissError) as old:
            _reference_estimate(graph, table, False)
        assert new.value.key == canonical_form(missing).key
        assert str(new.value) == str(old.value)
        return
    est = estimate_access(graph, table, fallback=True)
    assert (est.access, est.provenance) == _reference_estimate(graph, table, True)
    assert "fallback" in est.provenance.values()
