"""Exact canonical labeling and subgraph embedding for small graphs.

The canonical form is the upper-triangle adjacency bit string of a vertex
ordering found by exhaustive search.  Orderings grow one vertex at a time;
at each depth only the vertices that maximize the next chunk of bits (the
adjacency to the vertices already placed) and then the invariant (degree,
neighbor degrees) survive, and interchangeable twin vertices are collapsed.
No bound prunes a branch: every surviving ordering is expanded to a leaf and
the lexicographically largest bit string wins.  Both selection criteria are
isomorphism invariant, so the form is exact for every graph; practical for
n <= 10.
"""

from __future__ import annotations

from .graphs import Graph

MAX_N = 10


def _neighbor_degree_key(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    deg = g.degrees()
    adj = g.adjacency()
    return [(deg[v], tuple(sorted((deg[w] for w in adj[v]), reverse=True))) for v in range(g.n)]


def canonical_order(g: Graph) -> list[int]:
    """Vertex ordering realizing the canonical form (first = position 0)."""
    return _canonical_search(g)[0]


def _canonical_search(g: Graph) -> tuple[list[int], list[int]]:
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


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: equal for two graphs iff they are isomorphic.

    Chunk d, read from its high bit, is column d of the upper triangle of
    the relabeled adjacency matrix, which is graph6's bit order, so the
    chunks concatenated are the graph6 payload."""
    _, chunks = _canonical_search(g)
    bits = 0
    for d, chunk in enumerate(chunks):
        bits = (bits << d) | chunk
    nbits = g.n * (g.n - 1) // 2
    groups = (nbits + 5) // 6
    bits <<= 6 * groups - nbits
    return chr(63 + g.n) + "".join(
        chr(63 + (bits >> 6 * k & 63)) for k in range(groups - 1, -1, -1)
    )


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    return canonical_form(g) == canonical_form(h)


def find_spanning_embedding(h: Graph, g: Graph) -> list[int] | None:
    """Injective map of h onto all of g's vertices carrying edges to edges.

    Returns phi with phi[v] the image of v, or None.  Both graphs must have
    the same vertex count; g may have extra edges (h is then a spanning
    subgraph of g up to relabeling).
    """
    if h.n != g.n or len(h.edges) > len(g.edges):
        return None
    hdeg = h.degrees()
    gdeg = g.degrees()
    hadj = h.adjacency()
    gmask = [0] * g.n
    for u, v in g.edges:
        gmask[u] |= 1 << v
        gmask[v] |= 1 << u
    # high-degree, early-connected vertices first
    order: list[int] = []
    seen: set[int] = set()
    pending = sorted(range(h.n), key=lambda v: -hdeg[v])
    for root in pending:
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            queue.sort(key=lambda v: -hdeg[v])
            u = queue.pop(0)
            order.append(u)
            for w in sorted(hadj[u]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    phi = [-1] * h.n
    used = [False] * g.n

    def rec(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for target in range(g.n):
            if used[target] or gdeg[target] < hdeg[v]:
                continue
            ok = True
            for w in hadj[v]:
                if phi[w] != -1 and not (gmask[target] >> phi[w]) & 1:
                    ok = False
                    break
            if not ok:
                continue
            phi[v] = target
            used[target] = True
            if rec(k + 1):
                return True
            phi[v] = -1
            used[target] = False
        return False

    return phi if rec(0) else None
