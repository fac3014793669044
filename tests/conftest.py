import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from movability.catalog import catalog_graph, q1_embedding_example
from movability.constructions import (
    deltoid_motion,
    grid_search,
    motion_from_embedding,
    s5_motion,
    two_nac_embedding,
)
from movability.exact import GaussianRational, Poly
from movability.graphs import Graph, edge
from movability.motion import ParametrizedMotion
from movability.nac import BLUE, RED, NacColoring, enumerate_nac
from movability.ratfunc import Place, RationalFunction


# -- shorthands the tests build values with ------------------------------------


def gr(re, im=0) -> GaussianRational:
    return GaussianRational.of(re, im)


def rf(num_coeffs, den_coeffs=(1,)) -> RationalFunction:
    return RationalFunction.of(Poly.of(num_coeffs), Poly.of(den_coeffs))


def place_at(re, im=0) -> Place:
    return Place(GaussianRational.of(re, im))


def color(coloring: NacColoring, u: int, v: int) -> str:
    """RED or BLUE, the color of the edge uv; ValueError when uv is no edge."""
    e = edge(u, v)
    if e not in coloring.graph.edges:
        raise ValueError(f"{e} is not an edge")
    return RED if e in coloring.red else BLUE


def watched_variation(path) -> float:
    """How far the watched distance of a tracked path strays."""
    values = [s.watched_distance for s in path.samples]
    return max(values) - min(values)


@pytest.fixture
def rng():
    return random.Random(20250808)


def random_connected_graph(rng, n, extra_edges=2):
    """Random tree plus a few extra edges; always connected and simple."""
    edges = set()
    for v in range(1, n):
        edges.add(tuple(sorted((v, rng.randrange(v)))))
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    for e in candidates[:extra_edges]:
        edges.add(e)
    return Graph.of(n, edges)


def adjacency_sets(g: Graph) -> list[set[int]]:
    """The neighbour sets of g, built from its edge set alone, for oracles
    that must not read `Graph.masks()`."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reachable(edges, s) -> set[int]:
    """Brute-force oracle: grow the set reached from s until no edge leaves it."""
    reached = {s}
    grown = True
    while grown:
        grown = False
        for u, v in edges:
            if (u in reached) != (v in reached):
                reached |= {u, v}
                grown = True
    return reached


@st.composite
def connected_graphs(draw, min_n=1, max_n=10):
    """Hypothesis strategy: a random tree plus any set of extra edges."""
    n = draw(st.integers(min_n, max_n))
    tree = {edge(v, draw(st.integers(0, v - 1))) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return Graph.of(n, tree | set(extra))


def bundled_motion(name: str):
    """An exact motion the library builds: "deltoid" or "deltoid-<scale>",
    "q1" or "q1-<scale>" (the two-NAC motion of Q1's embedding example on
    the frame of that deltoid), "s5-<a>", or a catalog graph's grid motion
    by name (L1-L6)."""
    if name.startswith("deltoid"):
        return deltoid_motion(Fraction(name.partition("-")[2] or 1)).motion
    if name.startswith("q1"):
        g, first_red, second_red = q1_embedding_example()
        emb = two_nac_embedding(g, NacColoring(g, first_red), NacColoring(g, second_red), seed=0)
        return motion_from_embedding(emb, deltoid_motion(Fraction(name.partition("-")[2] or 1)))
    if name.startswith("s5"):
        return s5_motion(Fraction(name.split("-")[1]))[1]
    g = catalog_graph(name)
    return grid_search(g, enumerate_nac(g, non_conjugated=True))[3]


def conjugate_ratio_motion(p: Poly) -> ParametrizedMotion:
    """The path 0-1-2 with z0 = 0, z1 = 1 and z2 = 1 + p/conj(p), a motion
    since |p/conj(p)| = 1 for real t: W of edge (1, 2) is p/conj(p)."""
    one = RationalFunction.const(1)
    z2 = one + RationalFunction.of(p, p.conjugate_coeffs())
    return ParametrizedMotion(Graph.of(3, [(0, 1), (1, 2)]), (0, 1), (RationalFunction.const(0), one, z2))


def unresolved_motion() -> ParametrizedMotion:
    """conjugate_ratio_motion of p = t^2 + i t + 1, whose discriminant is
    -5, so neither p nor conj(p) has a root in Q(i)."""
    return conjugate_ratio_motion(Poly.of([1, (0, 1), 1]))


def cubic_motion() -> ParametrizedMotion:
    """conjugate_ratio_motion of p = (t - i)(t - 2i)(t - 1 - i): the
    numerator and denominator of W are cubics with all their roots in Q(i)
    and no root shared with any other polynomial of the motion."""
    return conjugate_ratio_motion(Poly.of([(0, -1), 1]) * Poly.of([(0, -2), 1]) * Poly.of([(-1, -1), 1]))
