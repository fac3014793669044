"""The split injectivity queries against the one-pass oracle.

`verify_injectivity` finds the coinciding pairs and `collinear_triples`
the identically collinear triples, both by equality of canonical forms;
`injectivity_oracle` cross-multiplies and samples, in one function.  They
must report the same pairs and triples on the bundled motions, one exact
refix of each, the JSON round trip of both, and motions with one and with
two copies of a vertex.
"""

import pytest

from conftest import adjacency_sets, bundled_motion
from injectivity_oracle import verify_injectivity as oracle
from movability.graphs import Graph
from movability.motion import (
    MotionError,
    ParametrizedMotion,
    collinear_triples,
    motion_from_json,
    motion_to_json,
    refix_edge,
    verify_injectivity,
)


def q1_with_copies(*originals: int) -> ParametrizedMotion:
    """The Q1 two-NAC motion plus vertices 7, 8, ..., the k-th a copy of
    originals[k] joined to its neighbours, so each copy coincides with its
    original for every parameter."""
    m = bundled_motion("q1")
    g = m.graph
    adjacency = adjacency_sets(g)
    copy_edges = [(v, g.n + k) for k, u in enumerate(originals) for v in adjacency[u]]
    dup = Graph.of(g.n + len(originals), [*g.edges, *copy_edges])
    return ParametrizedMotion(dup, m.fixed_edge, (*m.coords, *(m.coords[u] for u in originals)))


def _first_refix(m: ParametrizedMotion) -> ParametrizedMotion:
    """The exact refix to the first edge, in sorted order, that is not
    pinned and has rational length."""
    for e in m.graph.sorted_edges():
        if set(e) != set(m.fixed_edge):
            try:
                return refix_edge(m, *e)
            except MotionError:
                pass  # irrational length: no exact refix
    raise AssertionError("no edge to refix to")


# q1-dup2: 0, 7 and 9 coincide and so do 1 and 8, so the pair (1, 8)
# sorts between the pairs of the first group
COPIES = {"q1-dup": (0,), "q1-dup2": (0, 1, 0)}
NAMES = ("deltoid", "q1", "s5-2", "s5-5/2", "L1", "L2", "L3", "L4", "L5", "L6", *COPIES)


@pytest.mark.parametrize("name", NAMES)
def test_split_queries_match_the_oracle(name):
    m = q1_with_copies(*COPIES[name]) if name in COPIES else bundled_motion(name)
    motions = (m, _first_refix(m))
    # motions read back from JSON pass through RationalFunction.of
    for motion in (*motions, *(motion_from_json(motion_to_json(x)) for x in motions)):
        expected = oracle(motion)
        report = verify_injectivity(motion)
        assert report.proper == expected.proper
        assert report.coinciding_pairs == expected.coinciding_pairs
        assert collinear_triples(motion) == expected.collinear_triples


def test_duplicated_vertex_coincides_and_is_skipped():
    m = q1_with_copies(0)
    report = verify_injectivity(m)
    assert not report.proper
    assert report.coinciding_pairs == ((0, 7),)
    # (0, 1, 6) is collinear, so (1, 6, 7) is too; triples holding (0, 7) are skipped
    assert collinear_triples(m) == ((0, 1, 6), (1, 6, 7), (3, 4, 6))
