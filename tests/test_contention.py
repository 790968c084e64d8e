"""Exact graph machinery: independent sets, canonical labels, enumeration."""

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from slicenet.contention import (
    _SKELETONS,
    CANONICAL_MAX_VERTICES,
    MIS_MAX_VERTICES,
    ContentionGraph,
    GraphTooLargeError,
    Vertex,
    _pair_bit,
    canonical_form,
    clique_number,
    enumerate_connected_colored_graphs,
    graph_from_canonical,
    independence_number,
    maximum_independent_sets,
)


def _random_graph(rng, n, p, techs=("laa", "wifi")):
    vertices = [Vertex(id=f"v{i}", tech=techs[rng.integers(0, len(techs))]) for i in range(n)]
    edges = [
        (f"v{i}", f"v{j}")
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return ContentionGraph.build(vertices, edges)


def _brute_force_alpha(graph):
    """Largest independent set by scanning all vertex subsets."""
    ids = graph.ids
    n = len(ids)
    index = {vid: i for i, vid in enumerate(ids)}
    adj = [0] * n
    for a, b in graph.edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    best = 0
    for subset in range(1 << n):
        if subset.bit_count() <= best:
            continue
        if all(adj[i] & subset == 0 for i in range(n) if subset >> i & 1):
            best = subset.bit_count()
    return best


def test_independence_number_matches_brute_force():
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        g = _random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        assert independence_number(g) == _brute_force_alpha(g)


def test_maximum_independent_sets_path():
    g = ContentionGraph.build(
        [Vertex("a", "laa", 1), Vertex("b", "wifi"), Vertex("c", "laa", 2)],
        [("a", "b"), ("b", "c")],
    )
    assert maximum_independent_sets(g) == [("a", "c")]
    assert independence_number(g) == 2
    assert clique_number(g) == 2


def test_maximum_independent_sets_empty_graph():
    g = ContentionGraph.build([Vertex("a", "laa", 1), Vertex("b", "laa", 2)], [])
    assert maximum_independent_sets(g) == [("a", "b")]


def test_canonical_invariant_under_relabeling():
    import numpy as np

    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        g = _random_graph(rng, n, 0.5)
        base = canonical_form(g)
        perm = list(rng.permutation(n))
        mapping = {f"v{i}": f"r{perm[i]}" for i in range(n)}
        relabeled = ContentionGraph.build(
            [Vertex(mapping[v.id], v.tech, v.owner) for v in g.vertices],
            [(mapping[a], mapping[b]) for a, b in g.edges],
        )
        assert canonical_form(relabeled).key == base.key


def test_canonical_distinguishes_tech():
    pair = lambda t1, t2: ContentionGraph.build(
        [Vertex("a", t1, 1 if t1 == "laa" else None),
         Vertex("b", t2, 2 if t2 == "laa" else None)],
        [("a", "b")],
    )
    assert canonical_form(pair("laa", "laa")).key != canonical_form(pair("laa", "wifi")).key
    assert canonical_form(pair("laa", "wifi")).key == canonical_form(pair("wifi", "laa")).key


def test_enumeration_counts():
    # connected, vertex-colored with two colors, up to isomorphism
    for size, expected in ((1, 2), (2, 5), (3, 15), (4, 65), (5, 419)):
        assert len(enumerate_connected_colored_graphs(size)) == expected


def _skeleton_key(n, bits):
    # the canonical key of the uncolored graph
    return canonical_form(graph_from_canonical(n, "L" * n, bits)).key


def test_skeletons_are_the_connected_graphs():
    assert {n: len(s) for n, s in _SKELETONS.items()} == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    for n, skeletons in _SKELETONS.items():
        keys = set()
        for bits in skeletons:
            assert len(graph_from_canonical(n, "L" * n, bits).components()) == 1
            keys.add(_skeleton_key(n, bits))
        # pairwise non-isomorphic
        assert len(keys) == len(skeletons)


def test_skeletons_match_brute_force():
    for n in range(1, 6):
        pairs = n * (n - 1) // 2
        connected = set()
        for bits in range(1 << pairs):
            if len(graph_from_canonical(n, "L" * n, bits).components()) == 1:
                connected.add(_skeleton_key(n, bits))
        assert connected == {_skeleton_key(n, bits) for bits in _SKELETONS[n]}


def test_enumeration_keys_unique_and_round_trip():
    forms = enumerate_connected_colored_graphs(4)
    keys = [f.key for f in forms]
    assert len(keys) == len(set(keys))
    for form in forms:
        g = graph_from_canonical(form.size, form.colors, form.edge_bits)
        assert canonical_form(g).key == form.key


def _brute_force_orbits(size, colors, edge_bits):
    """Smallest position each position reaches under the color- and
    edge-preserving permutations of the canonical graph."""
    edges = {
        (i, j)
        for i in range(size)
        for j in range(i + 1, size)
        if edge_bits >> _pair_bit(i, j, size) & 1
    }
    orbits = list(range(size))
    for perm in permutations(range(size)):
        if all(colors[perm[i]] == colors[i] for i in range(size)) and edges == {
            tuple(sorted((perm[i], perm[j]))) for i, j in edges
        }:
            orbits = [min(o, perm[p]) for p, o in enumerate(orbits)]
    return tuple(orbits)


def test_orbits_match_brute_force():
    # in canonical vertex order and in reversed order, which relabels
    # every graph of two or more vertices
    for form in enumerate_connected_colored_graphs(5):
        want = _brute_force_orbits(form.size, form.colors, form.edge_bits)
        g = graph_from_canonical(form.size, form.colors, form.edge_bits)
        reversed_g = ContentionGraph.build(g.vertices[::-1], g.edges)
        assert form.orbits == want, form.key
        assert canonical_form(g).orbits == want, form.key
        assert canonical_form(reversed_g).orbits == want, form.key


def test_size_limits():
    big = ContentionGraph.build(
        [Vertex(f"v{i}", "laa", 1) for i in range(CANONICAL_MAX_VERTICES + 1)],
        [],
    )
    with pytest.raises(GraphTooLargeError):
        canonical_form(big)
    with pytest.raises(GraphTooLargeError):
        enumerate_connected_colored_graphs(CANONICAL_MAX_VERTICES + 1)
    beyond = ContentionGraph.build(
        [Vertex(f"v{i}", "laa", 1) for i in range(MIS_MAX_VERTICES + 1)], []
    )
    with pytest.raises(GraphTooLargeError, match="^clique number supports at most 20 "):
        clique_number(beyond)
    with pytest.raises(GraphTooLargeError, match="^independence number supports at most 20 "):
        independence_number(beyond)


def test_graph_validation():
    with pytest.raises(ValueError, match="duplicate"):
        ContentionGraph.build([Vertex("a", "laa", 1), Vertex("a", "laa", 1)], [])
    with pytest.raises(ValueError, match="self loop"):
        ContentionGraph.build([Vertex("a", "laa", 1)], [("a", "a")])
    with pytest.raises(ValueError, match="unknown vertex"):
        ContentionGraph.build([Vertex("a", "laa", 1)], [("a", "b")])


@given(st.integers(min_value=0, max_value=2 ** 15 - 1))
def test_independence_equals_complement_clique(edge_bits):
    n = 6
    colors = ["L"] * n
    mask = (1 << (n * (n - 1) // 2)) - 1
    g = graph_from_canonical(n, colors, edge_bits)
    complement = graph_from_canonical(n, colors, ~edge_bits & mask)
    assert independence_number(g) == clique_number(complement)


def test_components_partition_vertices():
    import numpy as np

    rng = np.random.default_rng(13)
    g = _random_graph(rng, 9, 0.2)
    comps = g.components()
    seen = sorted(vid for comp in comps for vid in comp.ids)
    assert seen == sorted(g.ids)
    for comp in comps:
        inner = set(comp.ids)
        for a, b in g.edges:
            # an edge never crosses a component boundary
            assert (a in inner) == (b in inner)


def test_neighbors_and_components_match_edge_scans():
    import numpy as np

    rng = np.random.default_rng(17)
    for n, p in ((1, 0.5), (8, 0.15), (12, 0.3), (15, 0.1)):
        g = _random_graph(rng, n, p)
        for vid in g.ids:
            scanned = {b if a == vid else a for a, b in g.edges if vid in (a, b)}
            assert g.neighbors(vid) == scanned
            assert g.degree(vid) == len(scanned)
        assert g.neighbors("absent") == frozenset()
        comps = g.components()
        # each component is the induced subgraph on its vertices, in
        # first-appearance order
        assert comps == [g.induced(c.ids) for c in comps]
        firsts = [g.ids.index(c.ids[0]) for c in comps]
        assert firsts == sorted(firsts)
