"""Exact canonical labeling and subgraph embedding for small graphs.

The canonical form is the upper-triangle adjacency bit string of a vertex
ordering found by exhaustive search.  Orderings grow one vertex at a time;
at each depth only the vertices that maximize the next chunk of bits (the
adjacency to the vertices already placed) and then the invariant (degree,
neighbor degrees) survive, and interchangeable twin vertices are collapsed.
The unplaced vertices are kept in cells of equal chunk, ordered by chunk,
and placing a vertex splits every cell in two, as in the partition
refinement of nauty (McKay and Piperno, "Practical graph isomorphism, II",
2014); here it only finds the largest chunk without rescanning, and the
form is the one the plain search defines.  No bound prunes a branch: every
surviving ordering is expanded to a leaf and the lexicographically largest
bit string wins.  Both selection criteria are isomorphism invariant, so the
form is exact for every graph; practical for n <= 10.

The same search yields generators of the automorphism group.  A leaf whose
bit string equals the best one differs from the best ordering by an
automorphism, and a collapsed twin pair is one (swapping two vertices with
the same neighbours outside the pair).  Every best leaf of the uncollapsed
tree is a walked best leaf followed by collapsed-twin swaps, and every
automorphism maps the best ordering onto such a leaf, so together they
generate the whole group.
"""

from __future__ import annotations

from .graphs import Graph, _graph6_of_columns, bits

MAX_N = 10


def canonical_chunks(masks: list[int]) -> tuple[list[int], list[list[int]]]:
    """The canonical chunks of the graph with adjacency bitmasks `masks`, and
    generators of its automorphism group: chunk d is the adjacency of
    position d to positions 0..d-1, 0 the high bit, and each generator p maps
    canonical position d to p[d].

    The unplaced vertices sit in cells (vertex mask, chunk), one per chunk
    value, largest chunk first.  Placing v splits each cell into its part
    adjacent to v, with chunk*2+1, and the rest, with chunk*2; the cells stay
    in chunk order, so no node rescans the free vertices.  The candidates are
    the vertices of the first cell with the largest invariant: degree, then
    the number of neighbours of each degree from the highest down, 4 bits
    each, which is the order of (degree, sorted neighbour degrees)."""
    n = len(masks)
    if n > MAX_N:
        raise ValueError(f"canonical labeling supports n <= {MAX_N}, got {n}")
    deg = [m.bit_count() for m in masks]
    invariant = []
    for v, m in enumerate(masks):
        key = deg[v] << 4 * n
        while m:
            low = m & -m
            m ^= low
            key += 1 << 4 * deg[low.bit_length() - 1]
        invariant.append(key)
    best: list[int] = []
    path: list[int] = []
    order: list[int] = []
    best_order: list[int] = []
    ties: list[list[int]] = []  # orderings of the leaves equal to best
    twins: set[tuple[int, int]] = set()

    def rec(cells: list[tuple[int, int]]):
        nonlocal best, best_order
        if not cells:
            if path > best:
                best, best_order = path.copy(), order.copy()
                ties.clear()
            elif path == best:
                ties.append(order.copy())
            return
        first, chunk = cells[0]
        if first & first - 1:
            top = -1
            rest = first
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                key = invariant[v]
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
        else:  # a cell of one vertex: the one candidate
            kept = [first.bit_length() - 1]
        path.append(chunk)
        for v in kept:
            order.append(v)
            near = masks[v]
            far = ~(near | 1 << v)
            split = []
            for cell, c in cells:
                if cell & near:
                    split.append((cell & near, c << 1 | 1))
                if cell & far:
                    split.append((cell & far, c << 1))
            rec(split)
            order.pop()
        path.pop()

    rec([((1 << n) - 1, 0)] if n else [])
    position = [0] * n
    for d, v in enumerate(best_order):
        position[v] = d
    generators = [[position[v] for v in leaf] for leaf in ties]
    for v, w in twins:
        swap = list(range(n))
        swap[position[v]], swap[position[w]] = position[w], position[v]
        generators.append(swap)
    return best, generators


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: equal for two graphs iff they are isomorphic;
    the chunks are the columns of the relabeled upper triangle."""
    return _graph6_of_columns(canonical_chunks(g.masks())[0])


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
    hadj = [bits(m) for m in h.masks()]
    gmask = g.masks()
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
            for w in hadj[u]:
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
