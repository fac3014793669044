"""The 21 maximal constant-distance closures and named example graphs.

Every graph here is stored as an explicit edge list in this module; there
are no data files.  Each catalog entry is its own constant distance closure
with no degree-two vertex, which the test suite re-verifies.
"""

from __future__ import annotations

from .graphs import Edge, Graph

CATALOG_EDGE_LISTS: dict[str, tuple[int, tuple[Edge, ...]]] = {
    "K33": (6, tuple((a, b) for a in range(3) for b in range(3, 6))),
    "K34": (7, tuple((a, b) for a in range(3) for b in range(3, 7))),
    "K35": (8, tuple((a, b) for a in range(3) for b in range(3, 8))),
    "K44": (8, tuple((a, b) for a in range(4) for b in range(4, 8))),
    "L1": (6, ((0, 1), (0, 5), (1, 5), (2, 3), (2, 4), (3, 4), (0, 3), (1, 2), (4, 5))),
    "L2": (7, ((0, 1), (0, 6), (1, 6), (2, 3), (2, 5), (3, 5), (0, 4), (1, 4), (4, 6), (0, 3), (1, 2), (5, 6))),
    "L3": (8, ((0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 7), (2, 3), (2, 7), (3, 7), (4, 5), (4, 6), (5, 6), (0, 7), (1, 6), (2, 5), (3, 4))),
    "L4": (8, ((0, 6), (0, 7), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (0, 3), (1, 5), (1, 7), (2, 4), (2, 6), (4, 6), (5, 7))),
    "L5": (8, ((0, 1), (0, 7), (1, 7), (2, 3), (2, 6), (3, 6), (0, 3), (1, 2), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7))),
    "L6": (8, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7), (0, 7), (1, 6), (2, 5))),
    "Q1": (7, ((2, 3), (3, 6), (2, 6), (1, 4), (1, 5), (0, 4), (0, 5), (1, 2), (4, 6), (5, 6), (0, 3))),
    "Q2": (8, ((1, 3), (6, 7), (0, 5), (3, 4), (3, 7), (4, 7), (1, 6), (0, 6), (5, 7), (2, 5), (2, 7), (1, 2), (0, 4))),
    "Q3": (8, ((2, 6), (1, 7), (0, 7), (3, 5), (5, 7), (5, 6), (6, 7), (4, 6), (4, 7), (1, 2), (0, 3), (4, 5), (1, 3), (0, 2))),
    "Q4": (8, ((0, 7), (1, 4), (0, 5), (1, 6), (3, 4), (3, 7), (4, 7), (5, 6), (2, 6), (2, 5), (0, 1), (2, 4), (6, 7), (3, 5))),
    "Q5": (8, ((1, 2), (0, 3), (0, 6), (1, 6), (0, 1), (2, 4), (5, 6), (4, 7), (2, 7), (5, 7), (3, 5), (3, 7), (4, 6))),
    "Q6": (8, ((3, 7), (4, 6), (0, 5), (1, 7), (4, 7), (3, 6), (2, 3), (2, 6), (1, 4), (5, 6), (0, 2), (5, 7), (0, 1))),
    "S1": (8, ((0, 7), (3, 4), (5, 6), (4, 5), (4, 7), (6, 7), (0, 3), (2, 4), (2, 6), (1, 5), (1, 7), (1, 2), (0, 6), (3, 5))),
    "S2": (8, ((3, 5), (2, 6), (0, 4), (2, 4), (0, 1), (5, 7), (2, 5), (4, 7), (3, 6), (1, 6), (6, 7), (3, 4), (1, 7), (0, 5))),
    "S3": (8, ((3, 7), (2, 6), (1, 5), (2, 5), (4, 7), (0, 6), (2, 7), (4, 5), (3, 6), (4, 6), (3, 5), (1, 7), (0, 7), (0, 1))),
    "S4": (8, ((0, 3), (1, 2), (2, 5), (4, 5), (1, 4), (3, 4), (0, 5), (2, 3), (0, 1), (4, 6), (4, 7), (3, 6), (6, 7), (3, 7))),
    "S5": (8, ((0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 6), (2, 3), (2, 6), (3, 7), (4, 7), (5, 6), (5, 7), (6, 7))),
}

CATALOG_NAMES = tuple(CATALOG_EDGE_LISTS)


def catalog_graph(name: str) -> Graph:
    n, edges = CATALOG_EDGE_LISTS[name]
    return Graph.of(n, edges)


def load_catalog() -> dict[str, Graph]:
    """Every catalog entry by name, in catalog order."""
    return {name: catalog_graph(name) for name in CATALOG_NAMES}


# -- named example graphs -----------------------------------------------------


def graph_without_nac() -> Graph:
    """Seven-vertex graph of rank 11 admitting no NAC-coloring at all."""
    return Graph.of(
        7,
        [(6, 1), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5), (0, 3), (6, 0), (6, 3)],
    )


def graph_with_unicolor_path() -> Graph:
    """Laman graph whose closure completes: vertices 0,3 and 1,4 are joined
    by paths unicolor in every NAC-coloring, and the augmented graph has no
    NAC-coloring."""
    return Graph.of(
        7,
        [(0, 1), (0, 2), (1, 2), (2, 4), (2, 3), (3, 4), (4, 6), (1, 6), (0, 5), (3, 5), (5, 6)],
    )


def movable_seven_vertex_graph() -> Graph:
    """The movable companion of the two graphs above (isomorphic to Q1)."""
    return Graph.of(
        7,
        [(1, 2), (1, 5), (3, 5), (2, 3), (0, 2), (4, 6), (0, 1), (0, 6), (1, 4), (3, 4), (5, 6)],
    )


def q1_embedding_example() -> tuple[Graph, frozenset[Edge], frozenset[Edge]]:
    """Q1 in the labeling its R^3-embedding example uses, plus the red
    classes of the two NAC-colorings driving that embedding."""
    g = Graph.of(
        7,
        [(0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (1, 6), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6)],
    )
    first_red = frozenset({(5, 6), (0, 3), (2, 3), (4, 5)})
    second_red = frozenset({(5, 6), (0, 3), (1, 2), (0, 4)})
    return g, first_red, second_red


def ring_of_complete_bipartite() -> Graph:
    """Five groups of five arranged in a cycle, complete bipartite between
    neighbors: the 25-vertex, 125-edge graph that satisfies the necessary
    condition yet is not movable."""
    # vertex u is in group u // 5 and joined to every vertex of the next group (mod 5)
    return Graph.of(25, [(u, (u // 5 + 1) % 5 * 5 + j) for u in range(25) for j in range(5)])
