"""Contention graphs over unlicensed-band transmitters.

Vertices are saturated transmitters (operator links or plain Wi-Fi
access points) tagged with a technology label; an edge means the two
endpoints hear each other above the clear-channel threshold and defer
to one another.  A graph holds one neighbor bitmask per vertex, the
form every algorithm here runs on.  The module is pure graph
machinery: induced subgraphs, components, exact
maximum-independent-set enumeration, and an exact canonical labeling
for small technology-colored graphs, memoized per process, used to key
measured access-probability tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations, product

LAA_TECH = "laa"
WIFI_TECH = "wifi"
_TECH_CHAR = {LAA_TECH: "L", WIFI_TECH: "W"}
#: the technology of each character of a canonical color string
TECH_OF_CHAR = {c: tech for tech, c in _TECH_CHAR.items()}

# Exhaustive class-respecting relabeling stays cheap up to this order;
# larger graphs must go through the fallback path instead.
CANONICAL_MAX_VERTICES = 6

MIS_MAX_VERTICES = 20

# Distinct inputs the memo of ``canonical_form`` keeps; a dense
# deployment labels a few dozen.
LABEL_MEMO_SIZE = 1024


class GraphTooLargeError(ValueError):
    def __init__(self, size: int, bound: int, what: str):
        super().__init__(f"{what} supports at most {bound} vertices, got {size}")
        self.size = size
        self.bound = bound


@dataclass(frozen=True)
class Vertex:
    id: str
    tech: str
    owner: int | None = None

    def __post_init__(self):
        if self.tech not in _TECH_CHAR:
            raise ValueError(f"vertex {self.id}: unknown technology {self.tech!r}")


@dataclass(frozen=True)
class ContentionGraph:
    """Simple undirected graph held as neighbor bitmasks: bit ``j`` of
    ``masks[i]`` means vertices ``i`` and ``j`` hear each other.

    Direct construction and ``build`` check the ids and masks.  Graphs
    valid by construction (``subgraph`` of a valid graph, the
    radio-geometry build, ``graph_from_canonical``) are made through
    ``_derived``, which checks nothing."""

    vertices: tuple[Vertex, ...]
    masks: tuple[int, ...]

    def __post_init__(self):
        ids = self.ids
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate vertex ids: {list(ids)}")
        n = len(ids)
        if len(self.masks) != n:
            raise ValueError(f"{len(self.masks)} neighbor masks for {n} vertices")
        for i, m in enumerate(self.masks):
            if m >> n:
                raise ValueError(f"mask of {ids[i]} has a bit past the last vertex")
            if m >> i & 1:
                raise ValueError(f"self loop on {ids[i]}")
            while m:
                low = m & -m
                j = low.bit_length() - 1
                if not self.masks[j] >> i & 1:
                    raise ValueError(f"edge ({ids[i]}, {ids[j]}) is not in both masks")
                m ^= low

    @staticmethod
    def build(vertices, edges) -> "ContentionGraph":
        """The graph on ``vertices`` with loose (a, b) id pairs as edges."""
        vertices = tuple(vertices)
        index = {v.id: i for i, v in enumerate(vertices)}
        masks = [0] * len(vertices)
        for a, b in edges:
            if a not in index or b not in index:
                raise ValueError(f"edge ({a}, {b}) references unknown vertex")
            masks[index[a]] |= 1 << index[b]
            masks[index[b]] |= 1 << index[a]
        return ContentionGraph(vertices=vertices, masks=tuple(masks))

    @classmethod
    def _derived(cls, vertices: tuple, masks: tuple) -> "ContentionGraph":
        """The graph on ``vertices`` and ``masks`` without the checks of
        ``__post_init__``: only for masks symmetric, in range and free of
        self loops by construction, over distinct vertex ids."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "vertices", vertices)
        object.__setattr__(graph, "masks", masks)
        return graph

    # -- basic access ----------------------------------------------------

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        """The edges as sorted id pairs."""
        ids = self.ids
        return frozenset(
            tuple(sorted((ids[i], ids[j])))
            for i, m in enumerate(self.masks)
            for j in range(i + 1, len(ids))
            if m >> j & 1
        )

    def subgraph(self, keep: int) -> "ContentionGraph":
        """Induced subgraph on the vertex positions set in ``keep``,
        preserving vertex order: each kept mask is remapped bit by bit
        to the kept positions."""
        if keep == (1 << len(self.masks)) - 1:
            return self
        pos = {}
        rest = keep
        while rest:
            low = rest & -rest
            pos[low.bit_length() - 1] = 1 << len(pos)
            rest ^= low
        masks = []
        for i in pos:
            m = self.masks[i] & keep
            out = 0
            while m:
                low = m & -m
                out |= pos[low.bit_length() - 1]
                m ^= low
            masks.append(out)
        return ContentionGraph._derived(tuple(self.vertices[i] for i in pos), tuple(masks))

    def component_masks(self, keep: int) -> list[int]:
        """The positions of each connected component of the subgraph on
        the positions set in ``keep``, as bitmasks, by first appearance."""
        comps = []
        while keep:
            frontier = keep & -keep
            comp = 0
            while frontier:
                comp |= frontier
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    nxt |= self.masks[low.bit_length() - 1]
                    frontier ^= low
                frontier = nxt & keep & ~comp
            comps.append(comp)
            keep &= ~comp
        return comps

    def components(self) -> list["ContentionGraph"]:
        """Connected components, ordered by first vertex appearance."""
        return [self.subgraph(c) for c in self.component_masks((1 << len(self.masks)) - 1)]


# -- maximum independent sets ---------------------------------------------


def _independence_number(masks: list[int], cand: int) -> int:
    if cand == 0:
        return 0
    best = 0

    def grow(sub: int, size: int) -> None:
        nonlocal best
        if sub == 0:
            best = max(best, size)
            return
        if size + sub.bit_count() <= best:
            return
        low = sub & -sub
        v = low.bit_length() - 1
        grow(sub & ~(masks[v] | low), size + 1)
        grow(sub ^ low, size)

    grow(cand, 0)
    return best


def independence_number(graph: ContentionGraph) -> int:
    n = len(graph.vertices)
    if n > MIS_MAX_VERTICES:
        raise GraphTooLargeError(n, MIS_MAX_VERTICES, "independence number")
    return _independence_number(graph.masks, (1 << n) - 1)


def clique_number(graph: ContentionGraph) -> int:
    """Largest mutually-sensing group; independence number of the complement."""
    n = len(graph.vertices)
    if n > MIS_MAX_VERTICES:
        raise GraphTooLargeError(n, MIS_MAX_VERTICES, "clique number")
    full = (1 << n) - 1
    # complement masks: every other vertex that is not a neighbor
    masks = [full & ~(m | 1 << i) for i, m in enumerate(graph.masks)]
    return _independence_number(masks, full)


def maximum_independent_sets(graph: ContentionGraph) -> list[tuple[str, ...]]:
    """Every independent set of maximum cardinality.

    Each set is a tuple of vertex ids in sorted order and the list is
    sorted lexicographically.  Exact branch-and-bound; graphs above
    ``MIS_MAX_VERTICES`` vertices are refused.
    """
    n = len(graph.vertices)
    if n > MIS_MAX_VERTICES:
        raise GraphTooLargeError(n, MIS_MAX_VERTICES, "independent-set enumeration")
    if n == 0:
        return [()]
    masks = graph.masks
    full = (1 << n) - 1
    alpha = _independence_number(masks, full)
    found: list[int] = []

    def collect(sub: int, chosen: int, size: int) -> None:
        if size + sub.bit_count() < alpha:
            return
        if size == alpha:
            found.append(chosen)
            return
        low = sub & -sub
        v = low.bit_length() - 1
        collect(sub & ~(masks[v] | low), chosen | low, size + 1)
        collect(sub ^ low, chosen, size)

    collect(full, 0, 0)
    ids = graph.ids
    sets = [
        tuple(sorted(ids[i] for i in range(n) if mask >> i & 1)) for mask in found
    ]
    sets.sort()
    return sets


# -- canonical labeling of colored graphs ---------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical description of a technology-colored graph.

    ``key`` is the lookup string; ``to_canon[i]`` gives the canonical
    position of vertex ``i`` (in graph vertex order); ``orbits[p]`` is
    the automorphism-orbit label of canonical position ``p`` (labels
    are the smallest position in the orbit).
    """

    key: str
    size: int
    to_canon: tuple[int, ...]
    orbits: tuple[int, ...]
    colors: tuple[str, ...]
    edge_bits: int


def _pair_bit(i: int, j: int, n: int) -> int:
    # pairs (i, j), i < j, in lexicographic order
    return i * n - i * (i + 1) // 2 + (j - i - 1)


# _PAIR_BITS[n][p][q] is the edge-mask bit of the pair {p, q} of an
# n-vertex graph in ``_pair_bit`` order, in either order of p and q
# (0 on the diagonal)
_PAIR_BITS = {
    n: tuple(
        tuple(0 if p == q else 1 << _pair_bit(min(p, q), max(p, q), n) for q in range(n))
        for p in range(n)
    )
    for n in range(CANONICAL_MAX_VERTICES + 1)
}


# _INCIDENT_BITS[n][p] holds the bits of every pair of an n-vertex
# graph that contains p
_INCIDENT_BITS = {n: tuple(sum(row) for row in rows) for n, rows in _PAIR_BITS.items()}


def degrees_from_bits(size: int, edge_bits: int) -> list[int]:
    """Degrees of vertices 0..size-1 whose edges are ``edge_bits`` in
    ``_pair_bit`` order, one mask-and-count each.  Sizes up to
    ``CANONICAL_MAX_VERTICES``."""
    return [(edge_bits & incident).bit_count() for incident in _INCIDENT_BITS[size]]


def masks_from_bits(size: int, edge_bits: int) -> tuple[int, ...]:
    """Neighbor bitmasks of vertices 0..size-1 whose edges are
    ``edge_bits`` in ``_pair_bit`` order; bits past the pairs of ``size``
    vertices are ignored.  Sizes up to ``CANONICAL_MAX_VERTICES``."""
    return tuple(
        sum(1 << q for q, bit in enumerate(row) if edge_bits & bit) for row in _PAIR_BITS[size]
    )


def _label(colors: str, masks: list[int]) -> CanonicalForm:
    """The labeling core: the canonical form of the graph whose vertex
    ``i`` has technology character ``colors[i]`` and neighbor bitmask
    ``masks[i]``.

    Vertices are first sorted into (technology, degree) classes; the
    edge bitmap is minimized over all class-respecting relabelings,
    which is invariant under color-preserving isomorphism and exact at
    small orders.  A relabeling's bitmap is gathered from
    ``_PAIR_BITS``, one lookup per edge at its relabeled positions.
    """
    n = len(colors)
    degs = [m.bit_count() for m in masks]
    order = sorted(range(n), key=lambda i: (colors[i], degs[i]))

    blocks: list[list[int]] = []
    for i in order:
        if blocks and (colors[blocks[-1][0]], degs[blocks[-1][0]]) == (colors[i], degs[i]):
            blocks[-1].append(i)
        else:
            blocks.append([i])

    pair = _PAIR_BITS[n]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if masks[i] >> j & 1]
    place = [0] * n  # each vertex's position in the current arrangement
    best_bits: int | None = None
    best_arrangements: list[list[int]] = []
    for parts in product(*(permutations(block) for block in blocks)):
        arrangement = [i for part in parts for i in part]
        for p, i in enumerate(arrangement):
            place[i] = p
        bits = 0
        for i, j in edges:
            bits |= pair[place[i]][place[j]]
        if best_bits is None or bits < best_bits:
            best_bits = bits
            best_arrangements = [arrangement]
        elif bits == best_bits:
            best_arrangements.append(arrangement)

    base = best_arrangements[0]
    canon_colors = tuple(colors[i] for i in base)
    degseq = "".join(str(degs[i]) for i in base)
    key = f"{n};{''.join(canon_colors)};{degseq};{best_bits:x}"

    to_canon = [0] * n
    for pos, i in enumerate(base):
        to_canon[i] = pos

    # the minimizing relabelings are the base one composed with every
    # automorphism, so the positions they send p to are p's orbit
    orbits = tuple(min(to_canon[arr[p]] for arr in best_arrangements) for p in range(n))

    return CanonicalForm(
        key=key,
        size=n,
        to_canon=tuple(to_canon),
        orbits=orbits,
        colors=canon_colors,
        edge_bits=best_bits or 0,
    )


def canonical_form(graph: ContentionGraph) -> CanonicalForm:
    """Exact canonical form via minimum adjacency bitmap, remembered per
    process for the last ``LABEL_MEMO_SIZE`` distinct inputs.

    The form depends only on the vertex-order colors and on the edges
    over vertex positions: ``to_canon`` is positional and vertex ids are
    never read.  That pair (the color string and the edge mask in
    ``_pair_bit`` order) is the memo key of the labeling core
    ``_label``, so a hit returns exactly the form a fresh label would,
    ``orbits`` included.
    """
    n = len(graph.vertices)
    if n > CANONICAL_MAX_VERTICES:
        raise GraphTooLargeError(n, CANONICAL_MAX_VERTICES, "canonical labeling")
    pair = _PAIR_BITS[n]
    bits = sum(
        pair[i][j] for i, m in enumerate(graph.masks) for j in range(i + 1, n) if m >> j & 1
    )
    return _labeled("".join(_TECH_CHAR[v.tech] for v in graph.vertices), bits)


@lru_cache(maxsize=LABEL_MEMO_SIZE)
def _labeled(colors: str, edge_bits: int) -> CanonicalForm:
    return _label(colors, masks_from_bits(len(colors), edge_bits))


def graph_from_canonical(size: int, colors, edge_bits: int) -> ContentionGraph:
    """Rebuild a concrete graph from canonical data; vertices are v0..v{n-1}."""
    if len(colors) != size:
        raise ValueError(f"{size} neighbor masks for {len(colors)} vertices")
    verts = tuple(Vertex(id=f"v{i}", tech=TECH_OF_CHAR[c]) for i, c in enumerate(colors))
    return ContentionGraph._derived(verts, masks_from_bits(size, edge_bits))


# Every connected graph of one to six vertices, up to isomorphism, as
# edge bitmasks over vertices 0..n-1 in ``_pair_bit`` order (1, 1, 2, 6,
# 21 and 112 per size).  Order and vertex numbering follow the graph
# atlas of Read and Wilson, "An Atlas of Graphs" (1998): by edge count,
# then degree sequence, then automorphism count.
_SKELETONS = {
    1: (0x0,),
    2: (0x1,),
    3: (0x3, 0x7),
    4: (0x34, 0xD, 0x3C, 0x2D, 0x2F, 0x3F),
    5: (
        0x348, 0x2A8, 0x99, 0x3C8, 0x9B, 0x2B8, 0x1E1, 0x299, 0x1F1, 0x3E1, 0x3C9,
        0x29D, 0x7E, 0x3F8, 0x3EC, 0x2F9, 0x17E, 0x3ED, 0x3DD, 0x3FD, 0x3FF,
    ),
    6: (
        0x6910, 0x3A1, 0x3007, 0x2461, 0x1258, 0x5211, 0x7910, 0x348C, 0x7308,
        0x14B8, 0x7E, 0x24E2, 0x206E, 0x3C42, 0x7007, 0x1278, 0x6D8, 0x1329,
        0x5231, 0x56C8, 0xFA1, 0x226E, 0x46E8, 0x4F81, 0x421F, 0x13A9, 0x228F,
        0x16D8, 0x5AA2, 0x132D, 0x6F8, 0x132B, 0x68E2, 0x32D2, 0x5272, 0x5235,
        0x3239, 0x7027, 0x27F, 0x226F, 0xEE3, 0x13E9, 0x52E9, 0xB6B, 0x12F9,
        0xB4F, 0x7AA2, 0x4277, 0x2B4B, 0x56D8, 0x1A3B, 0x3D98, 0x5E31, 0x50F3,
        0x1A3D, 0x46F8, 0x7329, 0x5731, 0x1B39, 0x5AB1, 0xF67, 0xB6F, 0x56AD,
        0x7AE2, 0x4B67, 0x7D98, 0x1A3F, 0x50FB, 0x51F3, 0x427F, 0x333D, 0x527E,
        0x5676, 0x1B3B, 0x3D9A, 0x7A39, 0x1B3D, 0x5E35, 0x5B87, 0x5AB5, 0x56ED,
        0x16FD, 0x7D99, 0x73E9, 0x567E, 0x5E76, 0x53F9, 0x3B3D, 0x1BBB, 0x6FC3,
        0x7B39, 0x5773, 0x5776, 0x78F3, 0x17EF, 0x2FE7, 0x56FD, 0x66EF, 0x79F3,
        0x5FDA, 0x55F7, 0x3F9B, 0x5FB5, 0x76EF, 0xFFF, 0x7F9B, 0x57F7, 0x777B,
        0x57FF, 0x777F, 0x7FFB, 0x7FFF,
    ),
}


#: How many colored forms the skeletons of each size give, so a table
#: build knows its length before any labeling (checked against
#: enumeration by the tests).
FORM_COUNTS = {1: 2, 2: 3, 3: 10, 4: 50, 5: 354, 6: 3883}


def skeletons(max_size: int) -> list[tuple[int, int]]:
    """(size, edge bits) of every skeleton in ``_SKELETONS`` up to
    ``max_size`` vertices, smallest first."""
    if max_size > CANONICAL_MAX_VERTICES:
        raise GraphTooLargeError(max_size, CANONICAL_MAX_VERTICES, "graph enumeration")
    return [(n, bits) for n in range(1, max_size + 1) for bits in _SKELETONS[n]]


def skeleton_forms(size: int, edge_bits: int) -> list[CanonicalForm]:
    """The canonical forms of every technology coloring of one skeleton,
    the first form of each key, in order of first appearance.

    The labeling loop of enumeration and of table builds: each of the
    2^size colorings is labeled straight from the skeleton's bitmasks by
    the labeling core, and no graph object is built.  Skeletons are
    pairwise non-isomorphic, so no key comes from two of them.
    """
    masks = masks_from_bits(size, edge_bits)
    seen: dict[str, CanonicalForm] = {}
    for coloring in product("LW", repeat=size):
        form = _label("".join(coloring), masks)
        seen.setdefault(form.key, form)
    return list(seen.values())


def enumerate_connected_colored_graphs(max_size: int) -> list[CanonicalForm]:
    """All connected graphs up to ``max_size`` vertices with every
    technology coloring, one canonical representative each: the forms
    of every skeleton, sorted by (size, key) so table builds enumerate
    deterministically."""
    forms = [form for n, bits in skeletons(max_size) for form in skeleton_forms(n, bits)]
    return sorted(forms, key=lambda f: (f.size, f.key))
