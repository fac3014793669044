"""Reference generator: canonize every child, and the relabeling canonical form.

The generator grows each layer by joining a new vertex to every nonempty
subset of every graph of the previous layer and keeps the canonical forms
of all children, with no rejection before canonizing.  The canonical form
relabels the graph by the reference search's `canonical_order`
(`tests/canon_oracle.py`) and encodes it with `encode_graph6`, so the
stream oracle runs none of `movability.canon`.  `tests/test_smallgraphs.py`
and `tests/test_canon.py` assert that `movability.smallgraphs` and
`movability.canon` agree with them.
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


def connected_graphs_up_to(max_n: int) -> Iterator[Graph]:
    layer = {relabel_canonical_form(Graph.of(1, []))}
    for size in range(2, max_n + 1):
        layer = _grow_layer(layer, size)
        for code in sorted(layer):
            yield parse_graph6(code)
