"""Undirected simple graphs on vertices 0..n-1, with graph6 and JSON I/O.

Everything downstream (coloring enumeration, closures, motions) consumes the
immutable :class:`Graph` defined here.  A graph has two adjacency forms, its
edge set and the bitmasks of `Graph.masks()`.  The constructor takes the edge
set and builds the masks.  Graphs read from graph6, grown by census
generation or relabeled are built from masks alone (`_graph_of_masks`), and
their edge set is derived when it is first read.
Connectivity is deliberately not an invariant of the type; operations that
need it check it, with the one bitmask search `component_masks` (or
`component_of`, its per-vertex form).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

Edge = tuple[int, int]


class Graph6Error(ValueError):
    """Malformed graph6 input (bad header, truncated bits, dirty padding)."""


class ReductionCollapse(ValueError):
    """Degree-two reduction emptied the graph below a single edge.

    Raised only for graphs whose flexing is trivial (paths, cycles, ...);
    anything with a spanning Laman subgraph keeps at least one edge.
    """


def edge(u: int, v: int) -> Edge:
    """Normalized (u < v) edge tuple."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with vertex set {0, ..., n-1}."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError("negative vertex count")
        masks = [0] * n
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "_masks", tuple(masks))

    def __getattr__(self, name: str):
        """The edge set of a graph built from masks, derived and stored when
        first read; any other missing name raises AttributeError.  Normal
        lookup comes first, so this runs only while `edges` is unset."""
        if name != "edges":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        edges = []
        for u, m in enumerate(self._masks):
            later = m >> u + 1 << u + 1  # the neighbours above u
            while later:
                low = later & -later
                later ^= low
                edges.append((u, low.bit_length() - 1))
        object.__setattr__(self, "edges", frozenset(edges))
        return self.edges

    @staticmethod
    def of(n: int, edges: Iterable[Iterable[int]]) -> "Graph":
        return Graph(n, frozenset(edge(u, v) for u, v in edges))

    # -- basic accessors -------------------------------------------------

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def masks(self) -> tuple[int, ...]:
        """Adjacency bitmasks: bit w of masks[v] is set iff vw is an edge.

        Built by the constructor in the loop that range-checks the edges, or
        given to `_graph_of_masks`, and kept on the instance outside the
        dataclass fields, so equality, hashing and repr ignore them."""
        return self._masks

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.masks()]

    def non_edges(self) -> list[Edge]:
        """The pairs uv, u < v, that are not edges, in sorted order."""
        out = []
        full = (1 << self.n) - 1
        for u, m in enumerate(self.masks()):
            missing = ~m & full & (-2 << u)  # the later vertices not adjacent to u
            while missing:
                low = missing & -missing
                missing ^= low
                out.append((u, low.bit_length() - 1))
        return out

    # -- predicates ------------------------------------------------------

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return self.n > 0 and component_masks(self.masks(), full)[0] == full

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def is_bipartite(self) -> tuple[bool, tuple[set[int], set[int]] | None]:
        """2-colorability check; returns the parts on success."""
        masks = self.masks()
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            queue = [s]
            while queue:
                u = queue.pop()
                for w in bits(masks[u]):
                    if color[w] == -1:
                        color[w] = 1 - color[u]
                        queue.append(w)
                    elif color[w] == color[u]:
                        return False, None
        parts = ({v for v in range(self.n) if color[v] == 0},
                 {v for v in range(self.n) if color[v] == 1})
        return True, parts

    # -- derived graphs ---------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph relabeled to 0..k-1, order preserving."""
        keep = sorted(set(vertices))
        if keep and not (0 <= keep[0] and keep[-1] < self.n):
            raise ValueError("vertex set not contained in the graph")
        index = {v: i for i, v in enumerate(keep)}
        kept = frozenset(
            (index[u], index[v]) for u, v in self.edges if u in index and v in index
        )
        return Graph(len(keep), kept)

    def with_edges(self, extra: Iterable[Edge]) -> "Graph":
        return Graph(self.n, self.edges | {edge(u, v) for u, v in extra})

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply vertex permutation: vertex v goes to position perm[v].
        ValueError unless perm is a permutation of 0..n-1."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"{perm!r} is not a permutation of 0..{self.n - 1}")
        masks = [0] * self.n
        for v, m in enumerate(self.masks()):
            masks[perm[v]] = sum(1 << perm[w] for w in bits(m))
        return _graph_of_masks(tuple(masks))


def _graph_of_masks(masks: tuple[int, ...]) -> Graph:
    """The graph on vertices 0..len(masks)-1 with adjacency bitmasks `masks`,
    which must be symmetric and loop free; its edge set is left unset until
    first read (`Graph.__getattr__`)."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", len(masks))
    object.__setattr__(g, "_masks", masks)
    return g


def bits(mask: int) -> list[int]:
    """The set bits of `mask` in ascending order: the vertices of a vertex
    bitmask, or the neighbours of a vertex given its adjacency bitmask."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def component_masks(masks: Sequence[int], within: int) -> list[int]:
    """Connected components of the subgraph induced on the vertex bitmask
    `within`, each a vertex bitmask, ordered by their lowest vertex.

    masks[v] is the adjacency bitmask of v; neighbours outside `within` are
    ignored."""
    out = []
    rest = within
    while rest:
        seen = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = masks[low.bit_length() - 1] & rest & ~seen
            seen |= new
            frontier |= new
        out.append(seen)
        rest &= ~seen
    return out


def component_of(masks: Sequence[int]) -> list[int]:
    """The component mask holding each vertex, for the adjacency masks of a
    graph on vertices 0..len(masks)-1; an isolated vertex is its own
    component."""
    out = [0] * len(masks)
    for comp in component_masks(masks, (1 << len(masks)) - 1):
        rest = comp
        while rest:
            low = rest & -rest
            rest ^= low
            out[low.bit_length() - 1] = comp
    return out


def reduce_degree_two(g: Graph) -> tuple[Graph, list[int]]:
    """Strip degree-two vertices one at a time until none remain.

    Removal cascades (a removal may create new degree-two vertices) and the
    lowest-labeled candidate goes first, so the result is deterministic.
    Returns the reduced graph plus the list of surviving original labels in
    order (position i of the result was vertex kept[i] of the input).
    Movability is invariant under this reduction.
    """
    masks = list(g.masks())
    alive = (1 << g.n) - 1
    while True:
        victim = next((v for v, m in enumerate(masks) if m.bit_count() == 2), None)
        if victim is None:
            break
        bit = 1 << victim
        m = masks[victim]
        low = m & -m
        for nb in (low, m ^ low):
            masks[nb.bit_length() - 1] ^= bit
        masks[victim] = 0
        alive ^= bit
        if not any(masks):
            raise ReductionCollapse(
                "degree-two reduction removed every edge; the graph flexes trivially"
            )
        if component_masks(masks, alive)[0] != alive:
            # a degree-two cut vertex: cannot happen for graphs with a
            # spanning Laman subgraph, and the movability equivalence needs
            # connected graphs, so stop rather than continue per component
            raise ReductionCollapse(
                "degree-two reduction disconnected the graph; the flex is trivial"
            )
    vertices = bits(alive)
    return g.induced_subgraph(vertices), vertices


# -- graph6 ----------------------------------------------------------------
#
# Short form only: header byte 63+n (n <= 62), then the upper triangle of the
# adjacency matrix read column by column -- pairs (0,1),(0,2),(1,2),(0,3),...
# -- packed big-endian into 6-bit groups, zero padded, each group offset by 63.
GRAPH6_MAX_N = 62


def _graph6_of_columns(columns: list[int]) -> str:
    """The graph6 string whose upper triangle has column d = columns[d], row 0
    its high bit: the columns concatenated are the payload."""
    n = len(columns)
    bits = 0
    for d, column in enumerate(columns):
        bits = bits << d | column
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    bits <<= 6 * groups - nbits
    return chr(63 + n) + "".join(chr(63 + (bits >> 6 * k & 63)) for k in range(groups - 1, -1, -1))


def _graph_of_columns(columns: list[int], code: str | None = None) -> Graph:
    """The graph whose upper triangle has column d = columns[d], row 0 its
    high bit, built from masks by walking the set bits; a given `code`, which
    must be `_graph6_of_columns(columns)`, seeds `encode_graph6`."""
    masks = [0] * len(columns)
    for v, column in enumerate(columns):
        while column:
            low = column & -column
            column ^= low
            u = v - low.bit_length()
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    g = _graph_of_masks(tuple(masks))
    if code is not None:
        object.__setattr__(g, "_graph6", code)
    return g


def encode_graph6(g: Graph) -> str:
    """The short-form graph6 code of g.

    Cached on the instance beside `Graph.masks()`, outside the dataclass
    fields, so equality, hashing and repr ignore it.  Census generation
    seeds it with the code it computed from the canonical columns, so its
    graphs are encoded without testing each vertex pair."""
    cached = getattr(g, "_graph6", None)
    if cached is None:
        if g.n > GRAPH6_MAX_N:
            raise Graph6Error("short-form graph6 supports at most 62 vertices")
        masks = g.masks()
        columns = [0] * g.n
        for v in range(1, g.n):
            for u in range(v):
                columns[v] = columns[v] << 1 | (masks[v] >> u & 1)
        cached = _graph6_of_columns(columns)
        object.__setattr__(g, "_graph6", cached)
    return cached


def parse_graph6(text: str) -> Graph:
    s = text.strip().removeprefix(">>graph6<<")
    if not s:
        raise Graph6Error("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        raise Graph6Error("long-form graph6 (n > 62) is not supported")
    if not (63 <= head <= 125):
        raise Graph6Error(f"bad header byte {head}")
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[1:]
    if len(body) < nbytes:
        raise Graph6Error("truncated graph6 bit stream")
    if len(body) > nbytes:
        raise Graph6Error("trailing bytes after graph6 payload")
    bits = 0
    for ch in body:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise Graph6Error(f"byte {ord(ch)} outside graph6 alphabet")
        bits = bits << 6 | val
    pad = 6 * nbytes - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    # column v is the v payload bits after column v - 1, so peel from the end
    bits >>= pad
    columns = [0] * n
    for v in range(n - 1, 0, -1):
        columns[v] = bits & (1 << v) - 1
        bits >>= v
    return _graph_of_columns(columns)


# -- adjacency-list JSON (secondary interchange format) --------------------


def json_edges(edges) -> list[list[int]]:
    """An edge list read from JSON, or ValueError unless it is a list of [u, v]
    int pairs: JSON may put a float (0.0 == 0), a bool or a string there."""
    if not isinstance(edges, list):
        raise ValueError(f"the edge list {edges!r} is not a list")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise ValueError(f"edge {e!r} needs two integer vertices")
    return edges


def graph_of_json(n, edges) -> Graph:
    """Graph.of for a vertex count and an edge list from a JSON graph or motion
    file: n must be an int of at most GRAPH6_MAX_N, checked before any allocation."""
    if type(n) is not int:
        raise ValueError(f"the vertex count {n!r} is not an integer")
    if n > GRAPH6_MAX_N:
        raise ValueError(f"a JSON graph has at most {GRAPH6_MAX_N} vertices, got {n}")
    return Graph.of(n, json_edges(edges))


def graph_from_json(text: str) -> Graph:
    data = json.loads(text)
    return graph_of_json(data["n"], data["edges"])
