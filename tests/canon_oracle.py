"""Reference canonical search: the vertex-set search the mask search replaced.

At each depth it recomputes every unplaced vertex's chunk over all placed
vertices and ranks the candidates by the tuple (chunk, (degree, neighbour
degrees sorted high first)); twins are collapsed and every surviving
ordering is expanded to a leaf, as in `movability.canon.canonical_chunks`.
`tests/test_canon.py` and `tests/test_acceptance.py` assert that the two give
the same chunks.
"""

from __future__ import annotations

from conftest import adjacency_sets
from movability.graphs import Graph

MAX_N = 10


def _neighbor_degree_key(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    deg = g.degrees()
    adj = adjacency_sets(g)
    return [(deg[v], tuple(sorted((deg[w] for w in adj[v]), reverse=True))) for v in range(g.n)]


def canonical_order(g: Graph) -> list[int]:
    """Vertex ordering realizing the canonical form (first = position 0)."""
    return canonical_search(g)[0]


def canonical_search(g: Graph) -> tuple[list[int], list[int]]:
    """The canonical ordering and its chunks: chunk d holds the adjacency of
    the vertex at position d to positions 0..d-1, position 0 the high bit."""
    if g.n > MAX_N:
        raise ValueError(f"canonical labeling supports n <= {MAX_N}, got {g.n}")
    n = g.n
    masks = [0] * n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    invariant = _neighbor_degree_key(g)

    best_chunks: list[int] | None = None
    best_order: list[int] | None = None

    def rec(order: list[int], chunks: list[int]):
        nonlocal best_chunks, best_order
        d = len(order)
        if d == n:
            if best_chunks is None or chunks > best_chunks:
                best_chunks = list(chunks)
                best_order = list(order)
            return
        placed = set(order)
        scored = []
        for v in range(n):
            if v in placed:
                continue
            chunk = 0
            for u in order:
                chunk = (chunk << 1) | ((masks[v] >> u) & 1)
            scored.append((chunk, invariant[v], v))
        top = max(s[:2] for s in scored)
        cands = [v for chunk, inv, v in scored if (chunk, inv) == top]
        # collapse twins: identical adjacency outside the pair means the
        # subtrees are identical, one representative suffices
        kept: list[int] = []
        for v in cands:
            pair_free = lambda x, a, b: x & ~((1 << a) | (1 << b))
            if any(pair_free(masks[v], v, w) == pair_free(masks[w], v, w) for w in kept):
                continue
            kept.append(v)
        for v in kept:
            order.append(v)
            chunks.append(top[0])
            rec(order, chunks)
            order.pop()
            chunks.pop()

    rec([], [])
    assert best_order is not None and best_chunks is not None
    return best_order, best_chunks
