"""Reference grid indexing: the cell of each vertex as `grid_construction`
computed it before a coloring carried its own component masks.

The red and blue edges are rebuilt as two graphs, their components are
listed by `component_masks` in the order of their lowest vertex, and vertex
v gets the indices of the components holding it.  Two vertices in one cell
raise the message the package raises.  `tests/test_constructions.py`
asserts that `grid_construction` gives the same points or the same message.

`grid_construction` is the construction before each vertex's z = a + bE
was written in closed form, kept verbatim: z is the sum of two constants,
one times the unit circle E, formed by `RationalFunction` arithmetic.
Canonical forms are unique, so the tests assert that both give the same
coordinates, fixed edge and labeling.
"""

from __future__ import annotations

from movability.constructions import (
    ConstructionInapplicable,
    _check_colorings,
    _const,
    _horizontal_pin,
    unit_circle,
)
from movability.graphs import Graph, bits, component_masks
from movability.motion import Labeling, ParametrizedMotion
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


def grid_construction(
    g: Graph, coloring: NacColoring
) -> tuple[tuple[tuple[int, int], ...], Labeling, ParametrizedMotion]:
    _check_colorings(g, coloring)
    # components are numbered as vertex order first meets them, which is the
    # order of their lowest vertex; isolated vertices are singletons
    (_, red_comp), (_, blue_comp) = coloring._sides
    red_index: dict[int, int] = {}
    blue_index: dict[int, int] = {}
    seen: dict[tuple[int, int], int] = {}
    for v, (r, b) in enumerate(zip(red_comp, blue_comp)):
        cell = (red_index.setdefault(r, len(red_index)), blue_index.setdefault(b, len(blue_index)))
        if cell in seen:
            raise ConstructionInapplicable(
                f"vertices {seen[cell]} and {v} share grid cell {cell}: "
                f"|R_{cell[0]} ∩ B_{cell[1]}| >= 2"
            )
        seen[cell] = v
    coords = list(seen)  # one cell per vertex, in vertex order
    e = unit_circle()
    base, tip = _horizontal_pin(sorted(coloring.blue), [i for i, _ in coords])
    ib, jb = coords[base]
    z = tuple(_const(i - ib) + _const(j - jb) * e for i, j in coords)
    motion = ParametrizedMotion(g, (base, tip), z)
    return tuple(coords), motion.induced_labeling(), motion
