"""Stream of all connected graphs up to isomorphism, for the census.

Vertex augmentation: every connected graph on n vertices arises from a
connected graph on n-1 vertices by adding one vertex x joined to a nonempty
subset, so growing layer by layer with canonical-form deduplication
enumerates each isomorphism class once.

Most children are rejected before they are canonized (canonical
augmentation, McKay 1998).  A vertex's key is its degree, then its sorted
neighbour degrees; a child is kept only when no non-cut vertex other than x
has a strictly smaller key.  This loses no class: let m be a non-cut vertex
of least key in a connected graph C.  Then C - m is connected, so its
canonical representative is in the previous layer, and joining x to the
vertices that play m's neighbours gives a child isomorphic to C in which x
plays m.  The key is isomorphism invariant, so x has the least key among the
non-cut vertices of that child and it is kept.  The test is built once per
parent, from bitmasks of the parent's vertices of each degree and of each
degree below, and from the components left by removing each cut vertex.
Per subset it reads masks, and it sorts neighbour degrees only for the
non-cut vertices of x's degree.  The set of canonical forms still removes
the remaining duplicates.  Each kept graph carries the graph6 code of its
canonical columns, so `encode_graph6` returns it without re-deriving it.

Only the least subset of each orbit of the parent's automorphism group is
tried.  An automorphism g of the parent, extended to fix x, maps the child
of subset S onto the child of g(S).  The key test and the canonical form are
invariants of the pair (child, x), so S decides its whole orbit and gives
its code.  The generators come from the canonical search that kept the
parent; a subgroup would lose nothing either, since the set of canonical
forms removes what it misses, as it removes children of different parents
that are isomorphic.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .canon import canonical_chunks
from .graphs import Graph, _graph6_of_columns, _graph_of_columns, component_masks


def _least_key_filter(masks: Sequence[int]) -> Callable[[int], bool]:
    """The key test for one parent: keep(subset) is False when some non-cut
    vertex of parent + x (x joined to subset) other than x has a smaller
    (degree, sorted neighbour degrees) key than x.

    The child's degrees are the parent's raised by one on the subset, so the
    vertices of child degree below x's, and equal to it, are each one mask
    expression over the parent's degree classes.  A vertex v is non-cut in
    the child exactly when the subset meets every component of the parent
    minus v.  When there is at most one, the subset meets it in every
    child in which v can rival x, as the subset then holds a vertex besides
    v: a rival in the subset has parent degree at least one, so x's degree,
    the subset's size, is at least two.  So per subset only the parent's
    cut vertices are checked against their components."""
    x = len(masks)
    everyone = (1 << x) - 1
    degrees = [m.bit_count() for m in masks]
    neighbours = [[w for w in range(x) if m >> w & 1] for m in masks]
    exact = [0] * (x + 1)
    for v, d in enumerate(degrees):
        exact[d] |= 1 << v
    below = [0] * (x + 1)
    for d in range(1, x + 1):
        below[d] = below[d - 1] | exact[d - 1]
    cut_parts = {}
    for v in range(x):
        parts = component_masks(masks, everyone ^ 1 << v)
        if len(parts) > 1:
            cut_parts[1 << v] = parts
    cut = sum(cut_parts)

    def keep(subset: int) -> bool:
        dx = subset.bit_count()
        smaller = below[dx] & ~subset | below[dx - 1] & subset
        if smaller & ~cut:
            return False
        equal = exact[dx] & ~subset | exact[dx - 1] & subset
        rivals = (smaller | equal) & cut
        while rivals:
            low = rivals & -rivals
            rivals ^= low
            if not all(part & subset for part in cut_parts[low]):
                equal &= ~low
            elif smaller & low:
                return False
        x_key = None
        while equal:
            low = equal & -equal
            equal ^= low
            v = low.bit_length() - 1
            if x_key is None:
                x_key = sorted(degrees[w] + 1 for w in range(x) if subset >> w & 1)
            v_key = [degrees[w] + (subset >> w & 1) for w in neighbours[v]]
            if subset & low:
                v_key.append(dx)
            if sorted(v_key) < x_key:
                return False
        return True

    return keep


def _least_of_each_orbit(generators: list[list[int]], x: int) -> Iterator[int]:
    """The nonempty subsets of range(x) that are the least of their orbit
    under the permutations `generators`, in ascending order."""
    if not generators:
        yield from range(1, 1 << x)
        return
    tables = []
    for p in generators:
        img = [0] * (1 << x)
        for s in range(1, 1 << x):
            low = s & -s
            img[s] = img[s ^ low] | 1 << p[low.bit_length() - 1]
        tables.append(img)
    seen = bytearray(1 << x)
    for subset in range(1, 1 << x):
        if seen[subset]:
            continue
        yield subset
        seen[subset] = 1
        stack = [subset]
        while stack:
            s = stack.pop()
            for img in tables:
                t = img[s]
                if not seen[t]:
                    seen[t] = 1
                    stack.append(t)


Layer = dict[str, tuple[Graph, list[list[int]]]]


def _grow_layer(layer: Layer, size: int) -> Layer:
    """The next layer, {canonical code: (the graph the code spells,
    generators of its automorphism group)}."""
    x = size - 1
    grown: Layer = {}
    for parent, generators in layer.values():
        masks = parent.masks()
        keep = _least_key_filter(masks)
        for subset in _least_of_each_orbit(generators, x):
            if keep(subset):
                child = [m | (subset >> v & 1) << x for v, m in enumerate(masks)] + [subset]
                chunks, child_generators = canonical_chunks(child)
                code = _graph6_of_columns(chunks)
                if code not in grown:
                    grown[code] = (_graph_of_columns(chunks, code), child_generators)
    return grown


def connected_graphs_up_to(max_n: int) -> Iterator[Graph]:
    layer: Layer = {_graph6_of_columns([0]): (Graph(1, frozenset()), [])}
    for size in range(2, max_n + 1):
        layer = _grow_layer(layer, size)
        for code in sorted(layer):
            yield layer[code][0]
