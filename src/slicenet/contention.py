"""Contention graphs over unlicensed-band transmitters.

Vertices are saturated transmitters (operator links or plain Wi-Fi
access points) tagged with a technology label; an edge means the two
endpoints hear each other above the clear-channel threshold and defer
to one another.  The module is pure graph machinery: induced
subgraphs, components, exact maximum-independent-set enumeration, and
an exact canonical labeling for small technology-colored graphs used
to key measured access-probability tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product

LAA_TECH = "laa"
WIFI_TECH = "wifi"
_TECH_CHAR = {LAA_TECH: "L", WIFI_TECH: "W"}

# Exhaustive class-respecting relabeling stays cheap up to this order;
# larger graphs must go through the fallback path instead.
CANONICAL_MAX_VERTICES = 6

MIS_MAX_VERTICES = 20


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
    """Simple undirected graph; edges are sorted id pairs."""

    vertices: tuple[Vertex, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        ids = [v.id for v in self.vertices]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate vertex ids: {ids}")
        known = set(ids)
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self loop on {a}")
            if a > b:
                raise ValueError(f"edge ({a}, {b}) not in sorted order")
            if a not in known or b not in known:
                raise ValueError(f"edge ({a}, {b}) references unknown vertex")

    @staticmethod
    def build(vertices, edges) -> "ContentionGraph":
        """Normalize loose (a, b) pairs into a validated graph."""
        pairs = frozenset(tuple(sorted((a, b))) for a, b in edges)
        return ContentionGraph(vertices=tuple(vertices), edges=pairs)

    # -- basic access ----------------------------------------------------

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    def has_edge(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) in self.edges

    @cached_property
    def _adjacency(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {vid: set() for vid in self.ids}
        for a, b in self.edges:
            out[a].add(b)
            out[b].add(a)
        return {vid: frozenset(nbrs) for vid, nbrs in out.items()}

    def neighbors(self, vid: str) -> frozenset[str]:
        return self._adjacency.get(vid, frozenset())

    def degree(self, vid: str) -> int:
        return len(self.neighbors(vid))

    def induced(self, keep) -> "ContentionGraph":
        """Induced subgraph on ``keep``, preserving vertex order."""
        keep = set(keep)
        return ContentionGraph(
            vertices=tuple(v for v in self.vertices if v.id in keep),
            edges=frozenset(e for e in self.edges if e[0] in keep and e[1] in keep),
        )

    def adjacency_masks(self) -> list[int]:
        """Neighbor bitmasks in vertex order."""
        index = {v.id: i for i, v in enumerate(self.vertices)}
        masks = [0] * len(self.vertices)
        for a, b in self.edges:
            ia, ib = index[a], index[b]
            masks[ia] |= 1 << ib
            masks[ib] |= 1 << ia
        return masks

    def components(self) -> list["ContentionGraph"]:
        """Connected components, ordered by first vertex appearance."""
        masks = self.adjacency_masks()
        n = len(self.vertices)
        label = [-1] * n
        count = 0
        for start in range(n):
            if label[start] >= 0:
                continue
            frontier = 1 << start
            comp = 0
            while frontier:
                comp |= frontier
                nxt = 0
                f = frontier
                while f:
                    low = f & -f
                    nxt |= masks[low.bit_length() - 1]
                    f ^= low
                frontier = nxt & ~comp
            while comp:
                low = comp & -comp
                label[low.bit_length() - 1] = count
                comp ^= low
            count += 1
        # split vertices and edges by label in one pass each
        verts: list[list[Vertex]] = [[] for _ in range(count)]
        edges: list[list[tuple[str, str]]] = [[] for _ in range(count)]
        of = {}
        for v, ci in zip(self.vertices, label):
            verts[ci].append(v)
            of[v.id] = ci
        for e in self.edges:
            edges[of[e[0]]].append(e)
        return [
            ContentionGraph(vertices=tuple(vs), edges=frozenset(es))
            for vs, es in zip(verts, edges)
        ]


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
    return _independence_number(graph.adjacency_masks(), (1 << n) - 1)


def clique_number(graph: ContentionGraph) -> int:
    """Largest mutually-sensing group; independence number of the complement."""
    n = len(graph.vertices)
    if n > MIS_MAX_VERTICES:
        raise GraphTooLargeError(n, MIS_MAX_VERTICES, "clique number")
    full = (1 << n) - 1
    # complement masks: every other vertex that is not a neighbor
    masks = [full & ~(m | 1 << i) for i, m in enumerate(graph.adjacency_masks())]
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
    masks = graph.adjacency_masks()
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


def canonical_form(graph: ContentionGraph) -> CanonicalForm:
    """Exact canonical form via minimum adjacency bitmap.

    Vertices are first sorted into (technology, degree) classes; the
    bitmap is minimized over all class-respecting relabelings, which
    is invariant under color-preserving isomorphism and exact at
    small orders.
    """
    n = len(graph.vertices)
    if n > CANONICAL_MAX_VERTICES:
        raise GraphTooLargeError(n, CANONICAL_MAX_VERTICES, "canonical labeling")
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    adj = [[False] * n for _ in range(n)]
    for a, b in graph.edges:
        ia, ib = index[a], index[b]
        adj[ia][ib] = adj[ib][ia] = True

    techs = [_TECH_CHAR[v.tech] for v in graph.vertices]
    degs = [sum(row) for row in adj]
    order = sorted(range(n), key=lambda i: (techs[i], degs[i]))

    blocks: list[list[int]] = []
    for i in order:
        if blocks and (techs[blocks[-1][0]], degs[blocks[-1][0]]) == (techs[i], degs[i]):
            blocks[-1].append(i)
        else:
            blocks.append([i])

    best_bits: int | None = None
    best_arrangements: list[tuple[int, ...]] = []
    for parts in product(*(permutations(block) for block in blocks)):
        arrangement = tuple(i for part in parts for i in part)
        bits = 0
        for p in range(n):
            row = adj[arrangement[p]]
            for q in range(p + 1, n):
                if row[arrangement[q]]:
                    bits |= 1 << _pair_bit(p, q, n)
        if best_bits is None or bits < best_bits:
            best_bits = bits
            best_arrangements = [arrangement]
        elif bits == best_bits:
            best_arrangements.append(arrangement)

    base = best_arrangements[0]
    colors = tuple(techs[i] for i in base)
    degseq = "".join(str(degs[i]) for i in base)
    key = f"{n};{''.join(colors)};{degseq};{best_bits:x}"

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
        colors=colors,
        edge_bits=best_bits or 0,
    )


def graph_from_canonical(size: int, colors, edge_bits: int) -> ContentionGraph:
    """Rebuild a concrete graph from canonical data; vertices are v0..v{n-1}."""
    rev = {"L": LAA_TECH, "W": WIFI_TECH}
    verts = [Vertex(id=f"v{i}", tech=rev[c]) for i, c in enumerate(colors)]
    edges = set()
    for i in range(size):
        for j in range(i + 1, size):
            if edge_bits >> _pair_bit(i, j, size) & 1:
                edges.add((f"v{i}", f"v{j}"))
    return ContentionGraph.build(verts, edges)


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


def enumerate_connected_colored_graphs(max_size: int) -> list[CanonicalForm]:
    """All connected graphs up to ``max_size`` vertices with every
    technology coloring, one canonical representative each.

    Colors every connected skeleton in ``_SKELETONS`` both ways per
    vertex and deduplicates with this module's canonical labeling.
    Sorted by (size, key) so table builds enumerate deterministically.
    """
    if max_size > CANONICAL_MAX_VERTICES:
        raise GraphTooLargeError(max_size, CANONICAL_MAX_VERTICES, "graph enumeration")
    seen: dict[str, CanonicalForm] = {}
    for n in range(1, max_size + 1):
        for bits in _SKELETONS[n]:
            for coloring in product("LW", repeat=n):
                form = canonical_form(graph_from_canonical(n, coloring, bits))
                seen.setdefault(form.key, form)
    return sorted(seen.values(), key=lambda f: (f.size, f.key))
