"""Reference generator: canonize every child, the relabeling canonical form,
and the key filter that rebuilt the child's degrees on every call.

The generator grows each layer by joining a new vertex to every nonempty
subset of every graph of the previous layer and keeps the canonical forms
of all children, with no rejection before canonizing.  The canonical form
relabels the graph by the reference search's `canonical_order`
(`tests/canon_oracle.py`) and encodes it with `encode_graph6`, so the
stream oracle runs none of `movability.canon`.  `tests/test_smallgraphs.py`
and `tests/test_canon.py` assert that `movability.smallgraphs` and
`movability.canon` agree with them.

`_new_vertex_has_least_key` is the key test of canonical augmentation as
generation ran it before `movability.smallgraphs._least_key_filter`, which
decides it from one parent's degree-class masks: it rebuilds the child's
degree list on every call and reads the components of the parent minus each
vertex from `parts`.  `tests/test_smallgraphs.py` asserts that the two give
the same boolean on every subset generation tries.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from canon_oracle import canonical_order
from movability.graphs import Graph, encode_graph6, parse_graph6


def relabel_canonical_form(g: Graph) -> str:
    order = canonical_order(g)
    position = [0] * g.n
    for i, v in enumerate(order):
        position[v] = i
    return encode_graph6(g.relabel(position))


def _grow_layer(layer: set[str], size: int) -> set[str]:
    grown: set[str] = set()
    for code in layer:
        parent = parse_graph6(code)
        base = parent.sorted_edges()
        for k in range(1, size):
            for subset in combinations(range(size - 1), k):
                child = Graph.of(size, base + [(v, size - 1) for v in subset])
                grown.add(relabel_canonical_form(child))
    return grown


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


def connected_graphs_up_to(max_n: int) -> Iterator[Graph]:
    layer = {relabel_canonical_form(Graph.of(1, []))}
    for size in range(2, max_n + 1):
        layer = _grow_layer(layer, size)
        for code in sorted(layer):
            yield parse_graph6(code)
