"""Complex-coordinate motions against the x/y oracle.

A motion stores z = x + i*y per vertex and derives x and y; the oracle
keeps two real functions per vertex.  Their x, y, W tables, labelings and
refixes must be equal: on the deltoid and S5 over the closed forms'
parameter range, and on Q1 and L1-L6 with the refix to every edge of
rational length.  Those refixes are `test_edge_table`'s cached ones, so a
full run builds them once.
"""

from fractions import Fraction

import pytest

import xy_motion_oracle as oracle
from movability.constructions import deltoid_motion, s5_motion
from movability.motion import MotionError, w_function
from test_edge_table import _motions

HALVES = [Fraction(k, 2) for k in (1, 3, 5, 7, 9)]


def _xy(m):
    return tuple((m.x(v), m.y(v)) for v in range(m.graph.n))


@pytest.mark.parametrize("scale", HALVES)
def test_deltoid_matches_the_xy_closed_form(scale):
    assert _xy(deltoid_motion(scale).motion) == oracle.deltoid_coords(scale)


@pytest.mark.parametrize("a", [Fraction(3, 2), Fraction(2), *HALVES[2:]])
def test_s5_matches_the_xy_closed_form(a):
    assert _xy(s5_motion(a)[1]) == oracle.s5_coords(a)


def _assert_same(m, xy):
    assert m.fixed_edge == xy.fixed_edge
    assert _xy(m) == xy.coords
    assert m.induced_labeling() == xy.labeling
    for (u, v), w in xy.w.items():
        assert w_function(m, u, v) == w


@pytest.mark.parametrize("name", ["q1", "L1", "L2", "L3", "L4", "L5", "L6"])
def test_motion_and_every_refix_match_the_xy_oracle(name):
    m, *refixes = _motions(name)
    xy = oracle.XYMotion(m.graph, m.fixed_edge, _xy(m))
    _assert_same(m, xy)
    # _motions keeps the refix to every edge of rational length
    refixed = {r.fixed_edge: r for r in refixes}
    for e in m.graph.sorted_edges():
        try:
            expected = oracle.refix_edge(xy, *e)
        except MotionError:
            assert e not in refixed  # irrational length: neither side refixes
            continue
        _assert_same(refixed.pop(e), expected)
    assert not refixed
