"""The split injectivity queries against the one-pass oracle.

`verify_injectivity` finds the coinciding pairs and `collinear_triples`
samples the identically collinear triples; `injectivity_oracle` did both
in one function.  They must report the same pairs and triples on the
bundled motions, one exact refix of each, and a motion with a coinciding
pair.
"""

import pytest

from conftest import bundled_motion
from injectivity_oracle import verify_injectivity as oracle
from movability.graphs import Graph
from movability.motion import (
    MotionError,
    ParametrizedMotion,
    collinear_triples,
    refix_edge,
    verify_injectivity,
)


def q1_with_duplicated_vertex() -> ParametrizedMotion:
    """The Q1 two-NAC motion plus vertex 7, a copy of vertex 0 joined to
    0's neighbours: the pair (0, 7) coincides for every parameter."""
    m = bundled_motion("q1")
    g = m.graph
    neighbours = [v for v in range(g.n) if (0, v) in g.edges]
    dup = Graph.of(g.n + 1, [*g.edges, *((v, g.n) for v in neighbours)])
    return ParametrizedMotion(dup, m.fixed_edge, (*m.coords, m.coords[0]))


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


NAMES = ("deltoid", "q1", "s5-2", "s5-5/2", "L1", "L2", "L3", "L4", "L5", "L6", "q1-dup")


@pytest.mark.parametrize("name", NAMES)
def test_split_queries_match_the_oracle(name):
    m = q1_with_duplicated_vertex() if name == "q1-dup" else bundled_motion(name)
    for motion in (m, _first_refix(m)):
        expected = oracle(motion)
        report = verify_injectivity(motion)
        assert report.proper == expected.proper
        assert report.coinciding_pairs == expected.coinciding_pairs
        assert collinear_triples(motion) == expected.collinear_triples


def test_duplicated_vertex_coincides_and_is_skipped():
    m = q1_with_duplicated_vertex()
    report = verify_injectivity(m)
    assert not report.proper
    assert report.coinciding_pairs == ((0, 7),)
    # (0, 1, 6) is collinear, so (1, 6, 7) is too; triples holding (0, 7) are skipped
    assert collinear_triples(m) == ((0, 1, 6), (1, 6, 7), (3, 4, 6))
