"""Reference NAC enumeration and closure: edge by edge, re-enumerating.

The enumerator backtracks over single edges instead of triangle classes,
and the closure enumerates NAC(G) afresh in every round instead of
filtering extensions.  `tests/test_nac.py` asserts that `movability.nac`
agrees with them, including where round one's enumeration raises
`EnumerationCapExceeded`.  The incident-pair rule is the witness
certificate `decide.certify_no_unicolor_pairs` used before it ran the
closure on the witnesses; `tests/test_decide.py` checks that the closure
rule accepts whatever this one does.  `oracle_triangle_classes` is the
breadth-first search over the common neighbours of each edge that
`movability.nac._triangle_classes` used before it grew neighbourhood
blocks, kept verbatim; `tests/test_nac.py` asserts that both give the same
classes in the same order.  `oracle_lite_closure_is_complete` is
`movability.nac.lite_closure_is_complete` as it was when it started from
the vertex sets of the triangle classes, before it started from
neighbourhood components; only its name and the name of the edge order it
imports changed.  The tests assert that both give the same answer.
"""

from __future__ import annotations

from itertools import combinations

from conftest import adjacency_sets
from movability.graphs import Edge, Graph, bits, edge
from movability.nac import (
    DEFAULT_ENUMERATION_CAP,
    ClosureReport,
    EnumerationCapExceeded,
    NacColoring,
    _dfs_edge_order as dfs_edge_order,
    _triangle_across,
    _triangle_classes,
)


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


def _dfs_edge_order(g: Graph) -> list[Edge]:
    adj = adjacency_sets(g)
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


def oracle_enumerate_nac(
    g: Graph,
    *,
    non_conjugated: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[NacColoring]:
    """Backtracking over single edges in DFS order, first edge pinned blue."""
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
            return None
        merged = same.copy()
        if merged.union(u, v):
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
            return
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


def oracle_unicolor_pairs(g: Graph, *, cap: int = DEFAULT_ENUMERATION_CAP) -> set[Edge]:
    """Pairs inside a connected component of one signature class."""
    if not g.is_connected():
        raise ValueError("unicolor pairs require a connected graph")
    reps = oracle_enumerate_nac(g, non_conjugated=True, cap=cap)
    signatures = {e: tuple(e in rep.red for rep in reps) for e in g.sorted_edges()}
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


def oracle_closure(g: Graph, *, cap: int = DEFAULT_ENUMERATION_CAP) -> ClosureReport:
    """G <- G + U(G), enumerating NAC(G) afresh in every round."""
    current = g
    rounds: list[tuple[Edge, ...]] = []
    while True:
        pairs = oracle_unicolor_pairs(current, cap=cap)
        if not pairs:
            break
        rounds.append(tuple(sorted(pairs)))
        current = current.with_edges(pairs)
    return ClosureReport(closure=current, added=tuple(rounds))


def oracle_separates_incident_pairs(g: Graph, witnesses: list[NacColoring]) -> bool:
    """True when the witnesses separate every pair of incident edges.

    Any unicolor path of length two or more contains two incident edges, so
    the rule is sound; but a triangle is one color in every NAC-coloring, so
    it fails on every graph with a triangle, unicolor pair or not.
    """
    listed = list(witnesses)
    for v, mask in enumerate(g.masks()):
        for u, w in combinations(bits(mask), 2):
            e1, e2 = edge(u, v), edge(v, w)
            if not any((e1 in wit.red) != (e2 in wit.red) for wit in listed):
                return False
    return True


def oracle_triangle_classes(g: Graph, order: list[Edge]) -> list[list[Edge]]:
    """The edges of g, listed in `order`, grouped into triangle-connected classes.

    Two edges share a class when a chain of triangles, consecutive ones
    sharing an edge, joins them.  Classes come in the order of their first
    edge in `order`.  Edge uv (u < v) is bit u*n + v of the seen mask.
    """
    nbrs = g.masks()
    n = g.n
    seen = 0
    classes: list[list[Edge]] = []
    for first in order:
        bit = 1 << first[0] * n + first[1]
        if seen & bit:
            continue
        seen |= bit
        members = [first]
        for u, v in members:  # the loop also visits the edges appended below
            common = nbrs[u] & nbrs[v]
            while common:
                low = common & -common
                common ^= low
                w = low.bit_length() - 1
                for e in ((u, w) if u < w else (w, u), (v, w) if v < w else (w, v)):
                    bit = 1 << e[0] * n + e[1]
                    if not seen & bit:
                        seen |= bit
                        members.append(e)
        classes.append(members)
    return classes


def oracle_lite_closure_is_complete(g: Graph) -> bool:
    """Whether the constant distance closure of g is complete, decided from
    vertex sets without enumerating; False says nothing.

    It starts from the vertex set of each triangle class and merges to a
    fixpoint two sets that share two or more vertices, or three sets that
    pairwise share three distinct vertices.  Each set stays a clique of the
    closure: a triangle class is connected and monochromatic in every
    NAC-coloring, so all pairs of its vertices are unicolor; two cliques that
    share two vertices share an edge, and a triangle across three cliques is
    monochromatic, so the closure joins their union too.  One set left that
    holds every vertex makes the closure K_n.  The answer is "closure
    complete", not "no NAC-coloring": the closure may complete only after
    some rounds.  Like the closure it needs a connected graph; on any other
    it raises ValueError or returns False.
    """
    pending = []
    for cls in _triangle_classes(g, dfs_edge_order(g)):
        s = 0
        for u, v in cls:
            s |= 1 << u | 1 << v
        pending.append(s)
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
