"""Reference canonical searches: the vertex-set search the mask search
replaced, and the mask search the chunk-cell search replaced.

At each depth it recomputes every unplaced vertex's chunk over all placed
vertices and ranks the candidates by the tuple (chunk, (degree, neighbour
degrees sorted high first)); twins are collapsed and every surviving
ordering is expanded to a leaf, as in `movability.canon.canonical_chunks`.
`tests/test_canon.py` and `tests/test_acceptance.py` assert that the two give
the same chunks.

`oracle_canonical_chunks` is the mask search that `canonical_chunks` used
before it kept the unplaced vertices in cells of equal chunk, kept
verbatim: at each node it reads every free vertex's chunk out of one
integer that holds them all.  The tests assert that both return the same
chunks and the same generators, in the same order.
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


def oracle_canonical_chunks(masks: list[int]) -> tuple[list[int], list[list[int]]]:
    """The canonical chunks of the graph with adjacency bitmasks `masks`, and
    generators of its automorphism group: chunk d is the adjacency of
    position d to positions 0..d-1, 0 the high bit, and each generator p maps
    canonical position d to p[d].

    All chunks so far live in one integer, n bits per vertex (w at bit n*w);
    placing v sets chunk_w <- (chunk_w << 1) | adj(w, v) for every w at once.
    The key ranks chunk first, then degree, then the number of neighbours of
    each degree from the highest down, 4 bits each: the order of (degree,
    sorted neighbour degrees)."""
    n = len(masks)
    if n > MAX_N:
        raise ValueError(f"canonical labeling supports n <= {MAX_N}, got {n}")
    deg = [m.bit_count() for m in masks]
    invariant, spread = [], []  # spread[v] has bit n*w for each neighbour w
    for v, m in enumerate(masks):
        key = deg[v] << 4 * n
        bits = 0
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            key += 1 << 4 * deg[w]
            bits |= 1 << n * w
        invariant.append(key)
        spread.append(bits)
    shift = 4 * n + 4
    slot = (1 << n) - 1
    best: list[int] = []
    path: list[int] = []
    order: list[int] = []
    best_order: list[int] = []
    ties: list[list[int]] = []  # orderings of the leaves equal to best
    twins: set[tuple[int, int]] = set()

    def rec(free: int, chunks: int):
        nonlocal best, best_order
        if not free:
            if path > best:
                best, best_order = path.copy(), order.copy()
                ties.clear()
            elif path == best:
                ties.append(order.copy())
            return
        top = -1
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            key = (chunks >> n * v & slot) << shift | invariant[v]
            if key > top:
                top = key
                cands = [v]
            elif key == top:
                cands.append(v)
        # collapse twins: identical adjacency outside the pair means the
        # subtrees are identical, one representative suffices
        kept: list[int] = []
        for v in cands:
            for w in kept:
                outside = ~(1 << v | 1 << w)
                if masks[v] & outside == masks[w] & outside:
                    twins.add((w, v))
                    break
            else:
                kept.append(v)
        path.append(top >> shift)
        for v in kept:
            order.append(v)
            rec(free ^ 1 << v, chunks << 1 | spread[v])
            order.pop()
        path.pop()

    rec((1 << n) - 1, 0)
    position = [0] * n
    for d, v in enumerate(best_order):
        position[v] = d
    generators = [[position[v] for v in leaf] for leaf in ties]
    for v, w in twins:
        swap = list(range(n))
        swap[position[v]], swap[position[w]] = position[w], position[v]
        generators.append(swap)
    return best, generators
