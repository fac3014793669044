"""A motion's edge table against the formulas it replaced.

Each edge's W is built once, when the motion is constructed, and the
labeling is read off it as W*Z.  These tests rebuild the squared distance,
W and Z from the coordinates, and recompute valuations and active
colorings from the fresh W, on the bundled motions and every exact refix
of each.
"""

from functools import lru_cache

import pytest

from conftest import bundled_motion
from movability.exact import GR_I
from movability.motion import (
    MotionError,
    active_nac_colorings,
    all_valuation_tables,
    refix_edge,
    w_function,
    z_function,
)
from movability.ratfunc import RationalFunction, valuation

I = RationalFunction.const(GR_I)
L_GRAPHS = ("L1", "L2", "L3", "L4", "L5", "L6")


@lru_cache(maxsize=None)
def _motions(name: str):
    """The named motion and its refix to every edge of rational length."""
    m = bundled_motion(name)
    out = [m]
    for e in m.graph.sorted_edges():
        try:
            out.append(refix_edge(m, *e))
        except MotionError:
            pass  # irrational length: no exact refix
    return tuple(out)


NAMES = ("deltoid", "q1", "s5-2", "s5-5/2", "s5-7/2", *L_GRAPHS)


@pytest.mark.parametrize("name", NAMES)
def test_edge_table_matches_the_coordinates(name):
    for m in _motions(name):
        lab = m.induced_labeling()
        assert list(lab) == m.graph.sorted_edges()
        fresh_w = {}
        for u, v in m.graph.sorted_edges():
            dx, dy = m.x(v) - m.x(u), m.y(v) - m.y(u)
            d2 = dx * dx + dy * dy
            assert d2.is_constant() and d2.constant_value().re == lab[(u, v)]
            w, z = dx + I * dy, dx - I * dy
            # swapping u and v negates dx and dy
            assert w_function(m, u, v) == w and w_function(m, v, u) == -w
            assert z_function(m, u, v) == z and z_function(m, v, u) == -z
            fresh_w[(u, v)] = w

        # the loop the queries ran before the table, on the fresh W; the
        # places are candidate_places(m), read off the W checked above
        tables = all_valuation_tables(m)
        expected = [
            [(e, valuation(fresh_w[e], t.place)) for e in m.graph.sorted_edges()]
            for t in tables
        ]
        assert [list(t.values) for t in tables] == expected
        active = set()
        for rows in expected:
            vals = dict(rows)
            for alpha in sorted(set(vals.values())):
                if not any(v > alpha for v in vals.values()):
                    continue
                active.add(frozenset(e for e, v in vals.items() if v > alpha))
        assert {c.red for c in active_nac_colorings(m).colorings} == active
