import random

import pytest
from hypothesis import strategies as st

from movability.graphs import Graph, edge


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


@st.composite
def connected_graphs(draw, min_n=1, max_n=10):
    """Hypothesis strategy: a random tree plus any set of extra edges."""
    n = draw(st.integers(min_n, max_n))
    tree = {edge(v, draw(st.integers(0, v - 1))) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return Graph.of(n, tree | set(extra))
