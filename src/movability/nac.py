"""NAC-colorings: recognition, enumeration, unicolor pairs, distance closure.

A NAC-coloring is a surjective red/blue edge coloring in which no cycle has
exactly one edge of either color ("no almost cycle").  The implemented test
is the component condition: an almost-red cycle exists precisely when some
blue edge closes a path inside one connected component of the red subgraph,
so it suffices that every blue edge joins two distinct red components and
every red edge joins two distinct blue components.  The brute-force cycle
oracle in the test suite checks this equivalence.

Every triangle is monochromatic in a NAC-coloring, so enumeration colors
triangle-connected classes of edges, not single edges.  The constant
distance closure enumerates once: by the closure lemma each added pair
takes the color of the unicolor path it closes, so the NAC-colorings of
the next round are the extensions of the current ones that stay NAC, and a
round only filters.  Where that closure ends complete it can often be told
without enumerating: `lite_closure_is_complete` merges vertex sets that are
cliques of the closure, starting from each vertex with each component of
its neighbourhood, and one set left means K_n; the census runs it first.
The edge-by-edge enumerator, the re-enumerating closure, the breadth-first
triangle classes and the lite closure started from triangle classes live
on in the test suite as oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .graphs import Edge, Graph, component_masks, component_of, edge, json_edges

DEFAULT_ENUMERATION_CAP = 40

RED = "red"
BLUE = "blue"

# one color's side of a coloring: the adjacency masks of its edges, and the
# component mask of those edges that holds each vertex
Side = tuple[list[int], list[int]]


class EnumerationCapExceeded(RuntimeError):
    """Too many edges to enumerate NAC-colorings; use witness certification."""


@dataclass(frozen=True)
class NacColoring:
    """Red/blue edge coloring of a graph, stored by its red class."""

    graph: Graph
    red: frozenset[Edge]

    def __post_init__(self):
        if not self.red <= self.graph.edges:
            raise ValueError("red class contains non-edges")

    @property
    def blue(self) -> frozenset[Edge]:
        return self.graph.edges - self.red

    @cached_property
    def _sides(self) -> tuple[Side, Side]:
        """The red side, then the blue side.  Built when first read and kept
        outside the dataclass fields, so equality, hashing and repr ignore it."""
        return _sides_of(self.graph, self.red)

    def sort_key(self) -> list[Edge]:
        """The order in which colorings are listed: by sorted red class."""
        return sorted(self.red)

    def conjugate(self) -> "NacColoring":
        return NacColoring(self.graph, self.blue)

    def to_json(self) -> str:
        edges = self.graph.sorted_edges()
        return json.dumps(
            {
                "edges": [list(e) for e in edges],
                "colors": [RED if e in self.red else BLUE for e in edges],
            }
        )

    @staticmethod
    def from_json(graph: Graph, text: str) -> "NacColoring":
        """The coloring a `to_json` file holds, which must name every edge of
        graph exactly once, each red or blue."""
        data = json.loads(text)
        if not (isinstance(data, dict) and isinstance(data.get("edges"), list)
                and isinstance(data.get("colors"), list)):
            raise ValueError("a coloring must be an object with edges and colors lists")
        listed = [edge(u, v) for u, v in json_edges(data["edges"])]
        colors = data["colors"]
        edges = set(listed)
        if len(listed) != len(colors) or len(edges) != len(listed) or edges != graph.edges:
            raise ValueError("coloring must assign every edge exactly once")
        for c in colors:
            if c not in (RED, BLUE):
                raise ValueError(f"unknown color {c!r}")
        return NacColoring(graph, frozenset(e for e, c in zip(listed, colors) if c == RED))


def is_nac(g: Graph, coloring: NacColoring) -> bool:
    """Surjectivity plus the component condition of the module docstring."""
    if coloring.graph != g:
        raise ValueError("coloring belongs to a different graph")
    return _separates(coloring._sides)


def _sides_of(g: Graph, red: Iterable[Edge]) -> tuple[Side, Side]:
    """The red and the blue side of the coloring of g with red class `red`."""
    red_masks = [0] * g.n
    for u, v in red:
        red_masks[u] |= 1 << v
        red_masks[v] |= 1 << u
    blue_masks = [m ^ r for m, r in zip(g.masks(), red_masks)]
    return (red_masks, component_of(red_masks)), (blue_masks, component_of(blue_masks))


def _separates(sides: tuple[Side, Side]) -> bool:
    """Both colors are used, and no edge of one color joins two vertices of
    one component of the other."""
    (red, red_comp), (blue, blue_comp) = sides
    for r, rc, b, bc in zip(red, red_comp, blue, blue_comp):
        if r & bc or b & rc:
            return False
    return any(red) and any(blue)


def _dfs_edge_order(g: Graph) -> list[Edge]:
    """Edges in the order a stack DFS from vertex 0 first meets them;
    ValueError unless the DFS reaches every vertex.

    Each vertex is popped once, so the edge uw is new when u is popped
    exactly when w has not been popped yet."""
    masks = g.masks()
    order: list[Edge] = []
    popped = 0
    visited = 1
    stack = [0]
    while stack:
        u = stack.pop()
        popped |= 1 << u
        new = masks[u] & ~popped
        while new:
            low = new & -new
            new ^= low
            w = low.bit_length() - 1
            order.append((u, w) if u < w else (w, u))
            if not visited & low:
                visited |= low
                stack.append(w)
    if visited != (1 << g.n) - 1:
        raise ValueError("graph must be connected")
    return order


def _triangle_classes(g: Graph, order: list[Edge]) -> list[list[Edge]]:
    """The edges of g, listed in `order`, grouped into triangle-connected classes.

    Two edges share a class when a chain of triangles, consecutive ones
    sharing an edge, joins them.  Edges uv and uw share a triangle exactly
    when v and w are adjacent, so the edges at u whose far ends lie in one
    component of G[N(u)] (u's block of v, read off `component_masks`) lie
    in one class, and a class is the union of the blocks its edges chain
    through.  Each class grows from its first edge by listing the blocks at
    both ends of every member; a block is listed once, and an edge in no
    triangle is its own block at both ends.  Classes come in the order of
    their first edge in `order`.
    """
    masks = g.masks()
    listed = [0] * g.n  # bit w of listed[u]: the edge uw is in a class
    grown = [0] * g.n  # bit w of grown[u]: u's block of w has been listed
    classes: list[list[Edge]] = []
    for first in order:
        u, v = first
        if listed[u] >> v & 1:
            continue
        listed[u] |= 1 << v
        listed[v] |= 1 << u
        members = [first]
        for u, v in members:  # the loop also visits the edges appended below
            if not masks[u] & masks[v]:
                continue
            for a, b in ((u, v), (v, u)):
                if grown[a] >> b & 1:
                    continue
                block = next(c for c in component_masks(masks, masks[a]) if c >> b & 1)
                grown[a] |= block
                new = block & ~listed[a]
                listed[a] |= new
                while new:
                    low = new & -new
                    new ^= low
                    w = low.bit_length() - 1
                    listed[w] |= 1 << a
                    members.append((a, w) if a < w else (w, a))
        classes.append(members)
    return classes


def enumerate_nac(
    g: Graph,
    *,
    non_conjugated: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[NacColoring]:
    """All NAC-colorings of a connected graph, duplicate free, sorted by red class.

    A triangle is monochromatic in every NAC-coloring (a 2+1 split is an
    almost cycle), so the search colors triangle-connected classes of edges
    rather than single edges.  It backtracks over the classes in DFS edge
    order keeping, per color, the component mask that holds each vertex, as
    `NacColoring`'s sides do; a class is connected, so coloring it joins
    every component of its color that it touches.  A branch dies as soon as
    an almost cycle is unavoidable.  The class of the first DFS edge is
    pinned blue (conjugation halves the tree) and the full set is restored
    by mirroring unless ``non_conjugated`` is set.  The cap counts edges,
    not classes.
    """
    if len(g.edges) == 0:
        return []
    if len(g.edges) > cap:
        raise EnumerationCapExceeded(
            f"{len(g.edges)} edges exceed the enumeration cap {cap}"
        )
    classes = _triangle_classes(g, _dfs_edge_order(g))
    m = len(classes)
    results: list[frozenset[Edge]] = []
    red_acc: list[Edge] = []
    blue_acc: list[Edge] = []

    def try_color(same: list[int], other: list[int], cls: list[Edge], other_edges: list[Edge]):
        joined = 0
        for u, v in cls:
            if other[u] >> v & 1:
                return None  # the class would close an almost cycle of the other color
            joined |= same[u] | same[v]
        if same[cls[0][0]] == joined:
            return same
        for x, y in other_edges:  # the joined component may trap an other-colored edge
            if joined >> x & joined >> y & 1:
                return None
        return [joined if c & joined else c for c in same]

    def rec(k: int, red_comp: list[int], blue_comp: list[int]):
        if k == m:
            if red_acc:
                results.append(frozenset(red_acc))
            return
        cls = classes[k]
        blue_next = try_color(blue_comp, red_comp, cls, red_acc)
        if blue_next is not None:
            blue_acc.extend(cls)
            rec(k + 1, red_comp, blue_next)
            del blue_acc[-len(cls) :]
        if k == 0:
            return  # first class pinned blue; mirror restores conjugates
        red_next = try_color(red_comp, blue_comp, cls, blue_acc)
        if red_next is not None:
            red_acc.extend(cls)
            rec(k + 1, red_next, blue_comp)
            del red_acc[-len(cls) :]

    singletons = [1 << v for v in range(g.n)]
    rec(0, singletons, singletons)
    colorings = [NacColoring(g, red) for red in results]
    colorings.sort(key=NacColoring.sort_key)
    if non_conjugated:
        return colorings
    full = colorings + [c.conjugate() for c in colorings]
    full.sort(key=NacColoring.sort_key)
    return full


def _closing_pairs(g: Graph, reds: list[frozenset[Edge]]) -> dict[Edge, int]:
    """Unicolor pairs of g, each mapped to the signature of a path it closes.

    `reds` are the red classes of the non-conjugated NAC-colorings.  Bit i
    of an edge's signature is set when coloring i paints the edge red.  A
    non-edge joined by a path of edges with one signature is a unicolor
    pair; in coloring i it must take bit i of that signature as its color.
    With no coloring every non-edge qualifies.
    """
    if not reds:
        return dict.fromkeys(g.non_edges(), 0)
    # per signature, the adjacency masks of the edges that carry it
    classes: dict[int, list[int]] = {}
    for e in g.edges:
        sig = 0
        for i, red in enumerate(reds):
            if e in red:
                sig |= 1 << i
        masks = classes.get(sig)
        if masks is None:
            masks = classes[sig] = [0] * g.n
        u, v = e
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    adj = g.masks()
    found: dict[Edge, int] = {}
    for sig, masks in classes.items():
        for u, comp in enumerate(component_of(masks)):
            # the later vertices of u's component that are not adjacent to u
            far = comp & ~adj[u] & (-2 << u)
            while far:
                w = far & -far
                far ^= w
                found.setdefault((u, w.bit_length() - 1), sig)
    return found


def unicolor_pairs(g: Graph, *, cap: int = DEFAULT_ENUMERATION_CAP) -> set[Edge]:
    """Non-adjacent vertex pairs joined by a path unicolor in every NAC-coloring.

    A path is unicolor under every coloring iff its edges are pairwise
    equal-colored under every coloring, i.e. iff all its edges share one
    signature; so the pairs are found inside connected components of each
    signature class.  When NAC(G) is empty the condition is vacuous and
    every non-adjacent pair qualifies -- that case is what eventually
    completes the closure of graphs with unfixable coincidences.
    """
    if not g.is_connected():
        raise ValueError("unicolor pairs require a connected graph")
    reps = enumerate_nac(g, non_conjugated=True, cap=cap)
    return set(_closing_pairs(g, [rep.red for rep in reps]))


@dataclass(frozen=True)
class ClosureReport:
    """Result of the constant distance closure fixpoint."""

    closure: Graph
    added: tuple[tuple[Edge, ...], ...]

    @property
    def iterations(self) -> int:
        return len(self.added)

    def is_complete(self) -> bool:
        return self.closure.is_complete()


def constant_distance_closure(
    g: Graph,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    reps: list[NacColoring] | None = None,
) -> ClosureReport:
    """Iterate G <- G + U(G) until no unicolor pair remains.

    NAC(G) is enumerated once.  By the closure lemma a unicolor pair uv must
    take the color of the path it closes in every NAC-coloring, so NAC(G+U)
    is exactly the set of extensions of NAC(G) that are still NAC; each
    round filters the previous representatives instead of enumerating
    again, with the component condition `is_nac` tests.  Once none is left,
    from the start or after a round, every non-edge is a unicolor pair and
    the next round completes the graph: it lists the non-edges and returns
    K_n, with no signature classes built.  The cap applies only where NAC(G) is
    enumerated: the later rounds filter, so a graph whose first round passes
    never raises, however many edges its closure gains.  The loop terminates
    because each round adds at least one of finitely many non-edges; the
    report keeps the per-round additions so experiments can see how many
    rounds graphs actually need.

    ``reps`` is any list of NAC-colorings of g, conjugates allowed; NAC(G)
    by default, and then the enumeration is skipped.  A conjugate only
    complements a signature bit, so it changes no signature class.  On a
    subset of NAC(G) the rounds give the closure that subset proves: the
    witness certificate and the active colorings of one motion run it so.
    """
    if not g.is_connected():
        raise ValueError("unicolor pairs require a connected graph")
    if reps is None:
        reps = enumerate_nac(g, non_conjugated=True, cap=cap)
    reds = [rep.red for rep in reps]
    current = g
    rounds: list[tuple[Edge, ...]] = []
    while reds:
        closing = _closing_pairs(current, reds)
        if not closing:
            break
        rounds.append(tuple(sorted(closing)))
        current = current.with_edges(closing)
        extended = (
            red | {pair for pair, sig in closing.items() if sig >> i & 1}
            for i, red in enumerate(reds)
        )
        reds = [red for red in extended if _separates(_sides_of(current, red))]
    if not reds and not current.is_complete():
        # with no coloring left every non-edge is a unicolor pair, so one
        # round completes the graph
        rounds.append(tuple(current.non_edges()))
        current = Graph(g.n, frozenset(combinations(range(g.n), 2)))
    return ClosureReport(closure=current, added=tuple(rounds))


def lite_closure_is_complete(g: Graph) -> bool:
    """Whether the constant distance closure of g is complete, decided from
    vertex sets without enumerating; False says nothing.

    It starts from the set {u} | B for each vertex u and each component B of
    G[N(u)] (a lone edge, in no triangle, is listed once, from its lower
    end) and merges to a fixpoint two sets that share two or more vertices,
    or three sets that pairwise share three distinct vertices.  Each set
    stays a clique of the closure: the edges from u to B lie in one
    triangle class, which is connected and monochromatic in every
    NAC-coloring, so all pairs of its vertices are unicolor; two cliques
    that share two vertices share an edge, and a triangle across three
    cliques is monochromatic, so the closure joins their union too.  The
    starting sets of one triangle class chain through shared edges and merge
    into its vertex set, so the fixpoint is the one the class vertex sets
    give.  One set left that holds every vertex makes the closure K_n.  The
    answer is "closure complete", not "no NAC-coloring": the closure may
    complete only after some rounds.  Every set lies in one component of g,
    so a disconnected graph gives False.
    """
    masks = g.masks()
    pending = []
    for u, m in enumerate(masks):
        for block in component_masks(masks, m):
            if block & block - 1 or block > 1 << u:
                pending.append(block | 1 << u)
    sets: list[int] = []  # pairwise sharing at most one vertex
    while True:
        for s in pending:
            i = 0
            while i < len(sets):
                common = s & sets[i]
                if common & common - 1:
                    s |= sets.pop(i)
                    i = 0
                else:
                    i += 1
            sets.append(s)
        if len(sets) <= 1:
            return sets == [(1 << g.n) - 1]
        triple = _triangle_across(sets)
        if triple is None:
            return False
        i, j, k = triple
        pending = [sets.pop(k) | sets.pop(j) | sets.pop(i)]


def _triangle_across(sets: list[int]) -> tuple[int, int, int] | None:
    """Indices i < j < k of three sets, pairwise sharing at most one vertex,
    that pairwise share three distinct vertices; None when there are none."""
    for i, a in enumerate(sets):
        for j in range(i + 1, len(sets)):
            b = sets[j]
            ab = a & b
            if not ab:
                continue
            for k in range(j + 1, len(sets)):
                c = sets[k]
                if c & a and c & b and not c & ab:
                    return i, j, k
    return None
