"""Exact graph machinery: independent sets, canonical labels, enumeration."""

import hashlib
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from slicenet.contention import (
    _SKELETONS,
    CANONICAL_MAX_VERTICES,
    FORM_COUNTS,
    LAA_TECH,
    LABEL_MEMO_SIZE,
    MIS_MAX_VERTICES,
    ContentionGraph,
    GraphTooLargeError,
    Vertex,
    _label,
    _labeled,
    _pair_bit,
    canonical_form,
    clique_number,
    degrees_from_bits,
    enumerate_connected_colored_graphs,
    graph_from_canonical,
    independence_number,
    masks_from_bits,
    maximum_independent_sets,
)


def _random_parts(rng, n, p, techs=("laa", "wifi")):
    vertices = [Vertex(id=f"v{i}", tech=techs[rng.integers(0, len(techs))]) for i in range(n)]
    edges = [
        (f"v{i}", f"v{j}")
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return vertices, edges


def _random_graph(rng, n, p, techs=("laa", "wifi")):
    return ContentionGraph.build(*_random_parts(rng, n, p, techs))


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


def test_enumeration_keys_and_orbits_are_pinned():
    # stored tables and cache files are keyed on these keys, and the
    # orbits decide which vertices each entry averages, so a labeling
    # change that moves either one orphans every table already written
    forms = enumerate_connected_colored_graphs(5)
    text = "".join(f"{f.key}\t{f.orbits}\n" for f in forms)
    assert len(forms) == 419
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "54a6f3ff8c9f1135db7364935a18924b6d6d8208dfd675def735d224dc514cb8"
    )


def test_bit_helpers_match_the_rebuilt_graph():
    for n in range(1, 6):
        for bits in range(1 << (n * (n - 1) // 2)):
            # reference masks straight from the pair bits
            masks = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if bits >> _pair_bit(i, j, n) & 1:
                        masks[i] |= 1 << j
                        masks[j] |= 1 << i
            masks = tuple(masks)
            assert masks_from_bits(n, bits) == masks
            assert graph_from_canonical(n, "L" * n, bits).masks == masks
            assert degrees_from_bits(n, bits) == [m.bit_count() for m in masks]


def test_enumeration_counts():
    # connected, vertex-colored with two colors, up to isomorphism
    for size, expected in ((1, 2), (2, 5), (3, 15), (4, 65), (5, 419)):
        assert len(enumerate_connected_colored_graphs(size)) == expected
    # a table build reads the per-size counts in place of enumerating,
    # and merges the forms of each skeleton unchecked, so no key may
    # come from two skeletons
    forms = enumerate_connected_colored_graphs(CANONICAL_MAX_VERTICES)
    assert Counter(f.size for f in forms) == FORM_COUNTS
    assert len({f.key for f in forms}) == len(forms)


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


def _shuffled(graph, rng, prefix):
    """The same graph in a random vertex order, under fresh ids."""
    order = list(rng.permutation(len(graph.vertices)))
    fresh = {v.id: f"{prefix}{i}" for i, v in enumerate(graph.vertices)}
    return ContentionGraph.build(
        [Vertex(fresh[graph.vertices[i].id], graph.vertices[i].tech) for i in order],
        [(fresh[a], fresh[b]) for a, b in graph.edges],
    )


def _fresh_label(graph):
    """The unmemoized labeling core on the graph's colors and masks."""
    colors = "".join("L" if v.tech == LAA_TECH else "W" for v in graph.vertices)
    return _label(colors, graph.masks)


def test_label_memo_is_exact():
    import numpy as np

    rng = np.random.default_rng(3)
    _labeled.cache_clear()
    for form in enumerate_connected_colored_graphs(5):
        g = graph_from_canonical(form.size, form.colors, form.edge_bits)
        views = [g] + [_shuffled(g, rng, f"s{k}_") for k in range(3)]
        # each view twice: the first may miss, the second hits
        for view in views + views:
            # dataclass equality compares every field, orbits included
            assert canonical_form(view) == _fresh_label(view), form.key
    assert _labeled.cache_info().hits > 0


def test_label_memo_hits_on_a_relabeled_copy():
    g = ContentionGraph.build(
        [Vertex("a", "laa", 1), Vertex("b", "wifi"), Vertex("c", "laa", 2)],
        [("a", "b"), ("b", "c")],
    )
    # same colors and edges by position, other ids in another sort order
    copy = ContentionGraph.build(
        [Vertex("z", "laa", 3), Vertex("y", "wifi"), Vertex("x", "laa")],
        [("z", "y"), ("y", "x")],
    )
    _labeled.cache_clear()
    first = canonical_form(g)
    assert _labeled.cache_info().misses == 1
    assert first == _fresh_label(g)
    assert canonical_form(copy) is first
    assert _labeled.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_label_memo_is_bounded():
    assert LABEL_MEMO_SIZE == 1024
    assert _labeled.cache_info().maxsize == LABEL_MEMO_SIZE
    _labeled.cache_clear()
    # 16 colorings x 64 edge sets of 4 vertices, and 8 x 8 of 3: 1088
    # distinct inputs, connected or not
    for n in (3, 4):
        pairs = n * (n - 1) // 2
        for colors in product("LW", repeat=n):
            for bits in range(1 << pairs):
                g = graph_from_canonical(n, colors, bits)
                assert canonical_form(g) == _fresh_label(g)
    assert _labeled.cache_info().currsize == LABEL_MEMO_SIZE
    big = ContentionGraph.build(
        [Vertex(f"v{i}", "laa", 1) for i in range(CANONICAL_MAX_VERTICES + 1)], []
    )
    with pytest.raises(GraphTooLargeError, match="^canonical labeling supports at most 6 "):
        canonical_form(big)


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
    pair = (Vertex("a", "laa", 1), Vertex("b", "wifi"))
    assert ContentionGraph(pair, (0b10, 0b01)) == ContentionGraph.build(pair, [("b", "a")])
    with pytest.raises(ValueError, match="self loop on b"):
        ContentionGraph(pair, (0b10, 0b11))
    with pytest.raises(ValueError, match=r"edge \(a, b\) is not in both masks"):
        ContentionGraph(pair, (0b10, 0b00))
    with pytest.raises(ValueError, match="mask of a has a bit past the last vertex"):
        ContentionGraph(pair, (0b110, 0b01))
    with pytest.raises(ValueError, match="mask of b has a bit past the last vertex"):
        ContentionGraph(pair, (0b10, -1))
    with pytest.raises(ValueError, match="3 neighbor masks for 2 vertices"):
        ContentionGraph(pair, (0b10, 0b01, 0b00))
    with pytest.raises(ValueError, match="1 neighbor masks for 2 vertices"):
        ContentionGraph(pair, (0b00,))
    with pytest.raises(ValueError, match="3 neighbor masks for 2 vertices"):
        graph_from_canonical(3, "LW", 0b1)


def _checked(graph):
    """``graph`` rebuilt through the checking constructor."""
    return ContentionGraph(graph.vertices, graph.masks)


@st.composite
def _graph_and_keep(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    techs = draw(st.lists(st.sampled_from(("laa", "wifi")), min_size=n, max_size=n))
    # ids in a drawn order, so vertex order and id order differ
    names = draw(st.permutations(range(n)))
    vertices = [Vertex(f"x{k}", tech) for k, tech in zip(names, techs)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(vertices[i].id, vertices[j].id) for i, j in chosen]
    keep = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return ContentionGraph.build(vertices, edges), keep


@given(_graph_and_keep())
def test_derived_graphs_pass_the_check(graph_keep):
    # subgraph and components skip the check; what they make must pass it
    g, keep = graph_keep
    sub = g.subgraph(keep)
    for derived in (sub, *g.components(), *sub.components()):
        assert _checked(derived) == derived
    assert sub.ids == tuple(vid for i, vid in enumerate(g.ids) if keep >> i & 1)


@given(
    st.integers(min_value=1, max_value=CANONICAL_MAX_VERTICES).flatmap(
        lambda n: st.tuples(
            st.text("LW", min_size=n, max_size=n), st.integers(min_value=0, max_value=2 ** 15 - 1)
        )
    )
)
def test_graphs_from_canonical_data_pass_the_check(colors_bits):
    colors, bits = colors_bits
    g = graph_from_canonical(len(colors), colors, bits)
    assert _checked(g) == g


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
        vertices, edges = _random_parts(rng, n, p)
        g = ContentionGraph.build(vertices, edges)
        for vid, mask in zip(g.ids, g.masks):
            scanned = {b if a == vid else a for a, b in edges if vid in (a, b)}
            assert mask == sum(1 << g.ids.index(u) for u in scanned)
        # reference components: a set-based search over the edge pairs,
        # each seeded at its first unseen vertex in vertex order
        near = {vid: set() for vid in g.ids}
        for a, b in edges:
            near[a].add(b)
            near[b].add(a)
        expected, unseen = [], list(g.ids)
        while unseen:
            comp, todo = set(), [unseen[0]]
            while todo:
                vid = todo.pop()
                if vid not in comp:
                    comp.add(vid)
                    todo.extend(near[vid] - comp)
            unseen = [vid for vid in unseen if vid not in comp]
            expected.append((
                [vid for vid in g.ids if vid in comp],
                {tuple(sorted(e)) for e in edges if e[0] in comp},
            ))
        comps = g.components()
        assert [(list(c.ids), set(c.edges)) for c in comps] == expected
        for c in comps:
            assert c.vertices == tuple(v for v in g.vertices if v.id in c.ids)
