"""Reference grid indexing: the cell of each vertex as `grid_construction`
computed it before a coloring carried its own component masks.

The red and blue edges are rebuilt as two graphs, their components are
listed by `component_masks` in the order of their lowest vertex, and vertex
v gets the indices of the components holding it.  Two vertices in one cell
raise the message the package raises.  `tests/test_constructions.py`
asserts that `grid_construction` gives the same points or the same message.
"""

from __future__ import annotations

from movability.constructions import ConstructionInapplicable
from movability.graphs import Graph, bits, component_masks
from movability.nac import NacColoring


def grid_points(g: Graph, coloring: NacColoring) -> tuple[tuple[int, int], ...]:
    full = (1 << g.n) - 1
    red_comps = component_masks(Graph(g.n, coloring.red).masks(), full)
    blue_comps = component_masks(Graph(g.n, coloring.blue).masks(), full)
    red_index = {v: i for i, comp in enumerate(red_comps) for v in bits(comp)}
    blue_index = {v: j for j, comp in enumerate(blue_comps) for v in bits(comp)}
    coords = [(red_index[v], blue_index[v]) for v in range(g.n)]
    seen: dict[tuple[int, int], int] = {}
    for v, cell in enumerate(coords):
        if cell in seen:
            raise ConstructionInapplicable(
                f"vertices {seen[cell]} and {v} share grid cell {cell}: "
                f"|R_{cell[0]} ∩ B_{cell[1]}| >= 2"
            )
        seen[cell] = v
    return tuple(coords)
