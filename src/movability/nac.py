"""NAC-colorings: recognition, enumeration, unicolor pairs, distance closure.

A NAC-coloring is a surjective red/blue edge coloring in which no cycle has
exactly one edge of either color ("no almost cycle").  The implemented test
is the component condition: an almost-red cycle exists precisely when some
blue edge closes a path inside one connected component of the red subgraph,
so it suffices that every blue edge joins two distinct red components and
every red edge joins two distinct blue components.  The brute-force cycle
oracle in the test suite checks this equivalence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .graphs import Edge, Graph, edge

DEFAULT_ENUMERATION_CAP = 40

RED = "red"
BLUE = "blue"


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

    def color(self, u: int, v: int) -> str:
        e = edge(u, v)
        if e not in self.graph.edges:
            raise ValueError(f"{e} is not an edge")
        return RED if e in self.red else BLUE

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
        data = json.loads(text)
        listed = [edge(u, v) for u, v in data["edges"]]
        colors = data["colors"]
        if len(listed) != len(colors) or set(listed) != graph.edges:
            raise ValueError("coloring does not cover the edge set exactly")
        red = frozenset(e for e, c in zip(listed, colors) if c == RED)
        for c in colors:
            if c not in (RED, BLUE):
                raise ValueError(f"unknown color {c!r}")
        return NacColoring(graph, red)


def conjugate(coloring: NacColoring) -> NacColoring:
    return coloring.conjugate()


class _DSU:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def copy(self) -> "_DSU":
        out = _DSU.__new__(_DSU)
        out.parent = self.parent[:]
        return out


def _as_red_set(g: Graph, coloring) -> frozenset[Edge]:
    if isinstance(coloring, NacColoring):
        if coloring.graph != g:
            raise ValueError("coloring belongs to a different graph")
        return coloring.red
    colors: Mapping = coloring
    keyed = {edge(u, v): c for (u, v), c in colors.items()}
    if set(keyed) != g.edges:
        raise ValueError("coloring must assign every edge exactly once")
    for c in keyed.values():
        if c not in (RED, BLUE):
            raise ValueError(f"unknown color {c!r}")
    return frozenset(e for e, c in keyed.items() if c == RED)


def is_nac(g: Graph, coloring) -> bool:
    """Surjectivity plus the two-union-find component condition."""
    red = _as_red_set(g, coloring)
    blue = g.edges - red
    if not red or not blue:
        return False
    red_comp = _DSU(g.n)
    for u, v in red:
        red_comp.union(u, v)
    blue_comp = _DSU(g.n)
    for u, v in blue:
        blue_comp.union(u, v)
    for u, v in blue:
        if red_comp.find(u) == red_comp.find(v):
            return False
    for u, v in red:
        if blue_comp.find(u) == blue_comp.find(v):
            return False
    return True


def _dfs_edge_order(g: Graph) -> list[Edge]:
    adj = g.adjacency()
    order: list[Edge] = []
    seen_edges: set[Edge] = set()
    visited = [False] * g.n
    stack = [0]
    visited[0] = True
    while stack:
        u = stack.pop()
        for w in sorted(adj[u]):
            e = edge(u, w)
            if e not in seen_edges:
                seen_edges.add(e)
                order.append(e)
            if not visited[w]:
                visited[w] = True
                stack.append(w)
    if len(order) != len(g.edges):
        raise ValueError("graph must be connected")
    return order


def enumerate_nac(
    g: Graph,
    *,
    non_conjugated: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[NacColoring]:
    """All NAC-colorings of a connected graph, duplicate free.

    Backtracks over edges in DFS order keeping one union-find per color
    class; a branch dies as soon as an almost cycle is unavoidable.  The
    search pins the first edge blue (conjugation halves the tree) and the
    full set is restored by mirroring unless ``non_conjugated`` is set.
    """
    if len(g.edges) == 0:
        return []
    if len(g.edges) > cap:
        raise EnumerationCapExceeded(
            f"{len(g.edges)} edges exceed the enumeration cap {cap}"
        )
    order = _dfs_edge_order(g)
    m = len(order)
    results: list[frozenset[Edge]] = []
    red_acc: list[Edge] = []
    blue_acc: list[Edge] = []

    def try_color(same: _DSU, other: _DSU, e: Edge, other_edges: list[Edge]) -> _DSU | None:
        u, v = e
        if other.find(u) == other.find(v):
            return None  # e would close an almost cycle of the other color
        merged = same.copy()
        if merged.union(u, v):
            # merging may trap an existing other-colored edge inside one
            # component of this color
            for x, y in other_edges:
                if merged.find(x) == merged.find(y):
                    return None
        return merged

    def rec(k: int, red_dsu: _DSU, blue_dsu: _DSU):
        if k == m:
            if red_acc:
                results.append(frozenset(red_acc))
            return
        e = order[k]
        blue_next = try_color(blue_dsu, red_dsu, e, red_acc)
        if blue_next is not None:
            blue_acc.append(e)
            rec(k + 1, red_dsu, blue_next)
            blue_acc.pop()
        if k == 0:
            return  # first edge pinned blue; mirror restores conjugates
        red_next = try_color(red_dsu, blue_dsu, e, blue_acc)
        if red_next is not None:
            red_acc.append(e)
            rec(k + 1, red_next, blue_dsu)
            red_acc.pop()

    rec(0, _DSU(g.n), _DSU(g.n))
    colorings = [NacColoring(g, red) for red in results]
    colorings.sort(key=lambda c: sorted(c.red))
    if non_conjugated:
        return colorings
    full = colorings + [c.conjugate() for c in colorings]
    full.sort(key=lambda c: sorted(c.red))
    return full


def edge_signatures(
    g: Graph, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> dict[Edge, tuple[bool, ...]]:
    """Per-edge color pattern across all non-conjugated NAC-colorings.

    Two edges get equal signatures exactly when every NAC-coloring gives
    them equal colors (conjugation cannot break a tie, so representatives
    with the reference edge pinned blue suffice).
    """
    reps = enumerate_nac(g, non_conjugated=True, cap=cap)
    return {
        e: tuple(e in rep.red for rep in reps) for e in g.sorted_edges()
    }


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
    signatures = edge_signatures(g, cap=cap)
    if signatures and len(next(iter(signatures.values()))) == 0:
        return set(g.non_edges())
    classes: dict[tuple[bool, ...], list[Edge]] = {}
    for e, sig in signatures.items():
        classes.setdefault(sig, []).append(e)
    found: set[Edge] = set()
    for group in classes.values():
        dsu = _DSU(g.n)
        touched: set[int] = set()
        for u, v in group:
            dsu.union(u, v)
            touched.update((u, v))
        comps: dict[int, list[int]] = {}
        for v in touched:
            comps.setdefault(dsu.find(v), []).append(v)
        for members in comps.values():
            members.sort()
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    if (u, v) not in g.edges:
                        found.add((u, v))
    return found


@dataclass(frozen=True)
class ClosureReport:
    """Result of the constant distance closure fixpoint."""

    graph: Graph
    closure: Graph
    added: tuple[tuple[Edge, ...], ...]

    @property
    def iterations(self) -> int:
        return len(self.added)

    def is_complete(self) -> bool:
        return self.closure.is_complete()


def constant_distance_closure(
    g: Graph, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> ClosureReport:
    """Iterate G <- G + U(G) until no unicolor pair remains.

    The loop terminates because each round adds at least one of finitely
    many non-edges; the report keeps the per-round additions so experiments
    can see how many rounds graphs actually need.
    """
    current = g
    rounds: list[tuple[Edge, ...]] = []
    while True:
        pairs = unicolor_pairs(current, cap=cap)
        if not pairs:
            break
        rounds.append(tuple(sorted(pairs)))
        current = current.with_edges(pairs)
    return ClosureReport(graph=g, closure=current, added=tuple(rounds))
