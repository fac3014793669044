"""Stream of all connected graphs up to isomorphism, for the census.

Vertex augmentation: every connected graph on n vertices arises from a
connected graph on n-1 vertices by adding one vertex joined to a nonempty
subset (a DFS-tree leaf can always be removed), so growing layer by layer
with canonical-form deduplication enumerates each isomorphism class once.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .canon import canonical_form
from .graphs import Graph, parse_graph6


def _grow_layer(layer: set[str], size: int) -> set[str]:
    grown: set[str] = set()
    for code in layer:
        parent = parse_graph6(code)
        base = parent.sorted_edges()
        for k in range(1, size):
            for subset in combinations(range(size - 1), k):
                child = Graph.of(size, base + [(v, size - 1) for v in subset])
                grown.add(canonical_form(child))
    return grown


def connected_graphs_up_to(max_n: int) -> Iterator[Graph]:
    layer = {canonical_form(Graph.of(1, []))}
    for size in range(2, max_n + 1):
        layer = _grow_layer(layer, size)
        for code in sorted(layer):
            yield parse_graph6(code)
