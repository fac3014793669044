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
non-cut vertices of that child and it is kept.  The test reads bitmasks
only; the set of canonical forms still removes the remaining duplicates.
"""

from __future__ import annotations

from typing import Iterator

from .canon import canonical_chunks
from .graphs import Graph, _graph6_of_columns, component_masks


def _new_vertex_has_least_key(
    masks: list[int], degrees: list[int], parts: list[list[int]], subset: int
) -> bool:
    """False when some non-cut vertex of parent + x (x joined to subset) other
    than x has a smaller (degree, sorted neighbour degrees) key than x.

    v is a non-cut vertex of the child exactly when the subset meets every
    component of the parent minus v (parts[v])."""
    dx = subset.bit_count()
    deg = [d + (subset >> v & 1) for v, d in enumerate(degrees)]
    x_key = None
    for v, d in enumerate(deg):
        if d > dx:
            continue
        if d == dx:
            if x_key is None:
                x_key = sorted(deg[w] for w in range(len(deg)) if subset >> w & 1)
            v_key = [deg[w] for w in range(len(deg)) if masks[v] >> w & 1]
            if subset >> v & 1:
                v_key.append(dx)
            if sorted(v_key) >= x_key:
                continue
        if all(part & subset for part in parts[v]):
            return False
    return True


def _grow_layer(layer: dict[str, list[int]], size: int) -> dict[str, list[int]]:
    """The next layer, {canonical code: adjacency masks relabeled by the code}."""
    x = size - 1
    everyone = (1 << x) - 1
    grown: dict[str, list[int]] = {}
    for masks in layer.values():
        degrees = [m.bit_count() for m in masks]
        parts = [component_masks(masks, everyone ^ 1 << v) for v in range(x)]
        for subset in range(1, 1 << x):
            if _new_vertex_has_least_key(masks, degrees, parts, subset):
                child = [m | (subset >> v & 1) << x for v, m in enumerate(masks)] + [subset]
                chunks = canonical_chunks(child)
                code = _graph6_of_columns(chunks)
                if code not in grown:
                    grown[code] = _masks_of_chunks(chunks)
    return grown


def _masks_of_chunks(chunks: list[int]) -> list[int]:
    """Adjacency masks of the graph whose upper triangle has columns `chunks`."""
    masks = [0] * len(chunks)
    for d, chunk in enumerate(chunks):
        for u in range(d):
            if chunk >> (d - 1 - u) & 1:
                masks[d] |= 1 << u
                masks[u] |= 1 << d
    return masks


def connected_graphs_up_to(max_n: int) -> Iterator[Graph]:
    layer = {_graph6_of_columns([0]): [0]}
    for size in range(2, max_n + 1):
        layer = _grow_layer(layer, size)
        for code in sorted(layer):
            masks = layer[code]
            yield Graph(size, frozenset((u, v) for v in range(size) for u in range(v) if masks[v] >> u & 1))
