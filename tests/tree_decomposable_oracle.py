"""Reference tree-decomposability: top-down split search.

This is the check `decide.is_tree_decomposable` made before it became a
bottom-up merge of clusters: it tries every vertex triple as the three
shared vertices, assigns the components of the graph minus the triple to
the three pieces, recurses into the pieces and memoizes on canonical
forms.  `tests/test_decide.py` asserts that both give the same answer.
"""

from __future__ import annotations

from itertools import combinations

from movability.canon import canonical_form
from movability.graphs import Edge, Graph, components


def is_tree_decomposable(g: Graph, _memo: dict | None = None) -> bool:
    if g.n > 10:
        raise ValueError("tree-decomposability check supports n <= 10")
    if len(g.edges) == 1:
        return True
    if len(g.edges) < 3 or not g.is_connected():
        return False
    memo = _memo if _memo is not None else {}
    key = canonical_form(g)
    if key in memo:
        return memo[key]
    memo[key] = False  # cycles cannot help
    adj = g.adjacency()
    result = any(
        _splits_at(g, adj, triple, memo) for triple in combinations(range(g.n), 3)
    )
    memo[key] = result
    return result


def _splits_at(g: Graph, adj, triple, memo) -> bool:
    u, v, w = triple
    hubs = {u, v, w}
    shared = ({u, w}, {u, v}, {v, w})  # vertex pairs of pieces 1, 2, 3
    comps = components(
        (x for x in range(g.n) if x not in hubs),
        (e for e in g.edges if e[0] not in hubs and e[1] not in hubs),
    )
    allowed: list[list[int]] = []
    for members in comps:
        attach = set()
        for x in members:
            attach |= adj[x] & hubs
        options = [i for i, pair in enumerate(shared) if attach <= pair]
        if not options:
            return False
        allowed.append(options)

    def edges_of(piece: int, assignment: list[int]) -> set[Edge]:
        verts = set(shared[piece])
        for members, a in zip(comps, assignment):
            if a == piece:
                verts |= set(members)
        out = set()
        for e in g.edges:
            a, b = e
            if a in verts and b in verts:
                # hub-hub edges go only to the piece sharing both hubs
                if a in hubs and b in hubs and {a, b} != shared[piece]:
                    continue
                out.add(e)
        return out

    def rec(k: int, assignment: list[int]) -> bool:
        if k == len(comps):
            pieces = []
            for i in range(3):
                es = edges_of(i, assignment)
                if not es:
                    return False
                verts = sorted({x for e in es for x in e})
                if not shared[i] <= set(verts):
                    return False
                index = {x: t for t, x in enumerate(verts)}
                sub = Graph.of(len(verts), [(index[a], index[b]) for a, b in es])
                if not sub.is_connected():
                    return False
                pieces.append(sub)
            if sum(len(p.edges) for p in pieces) != len(g.edges):
                return False
            return all(is_tree_decomposable(p, memo) for p in pieces)
        return any(rec(k + 1, assignment + [a]) for a in allowed[k])

    return rec(0, [])
