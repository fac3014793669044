"""A motion's labeling and edge table against the code they replaced.

The constructor proves the labeling by one polynomial identity per edge
over the coordinates' one denominator, and builds the table of edge
functions W only when a query first reads it; a refix's table is its
parent's times the rotation.  These tests compare labelings, and tables
read after construction, with the per-edge W and W*Z of `motion_oracle`,
and its MotionError texts on hand-built coordinates.  They rebuild the
squared distance, W and Z from the coordinates and recompute valuations
and active colorings from the fresh W, on the bundled motions and every
exact refix of each.  A cold `classify` of the catalog reads no grid or
two-NAC motion's table.
"""

from contextlib import suppress
from functools import cached_property, lru_cache

import pytest

import motion_oracle as oracle
from conftest import bundled_motion
from movability import decide
from movability.catalog import CATALOG_NAMES, catalog_graph
from movability.constructions import _unit_deltoid
from movability.exact import GR_I, Poly
from movability.graphs import Graph
from movability.motion import (
    MotionError,
    ParametrizedMotion,
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
    return with_refixes(bundled_motion(name))


def with_refixes(m: ParametrizedMotion) -> tuple[ParametrizedMotion, ...]:
    """m and its refix to every edge of rational length."""
    out = [m]
    for e in m.graph.sorted_edges():
        with suppress(MotionError):  # irrational length: no exact refix
            out.append(refix_edge(m, *e))
    return tuple(out)


def assert_agrees_with_oracle(m: ParametrizedMotion):
    """The constructor, run on m's coordinates, proves the oracle's labeling,
    which is m's too, and the table it builds when first read is the
    oracle's W, as is m's own."""
    w, lab = oracle.edge_tables(m.graph, m.fixed_edge, m.coords)
    fresh = ParametrizedMotion(m.graph, m.fixed_edge, m.coords)
    assert "_w" not in vars(fresh)
    assert fresh.induced_labeling() == m.induced_labeling() == lab
    assert fresh._w == m._w == w


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


@pytest.mark.parametrize("name", NAMES)
def test_labeling_and_table_match_the_oracle(name):
    for m in _motions(name):
        assert_agrees_with_oracle(m)


def _error_text(build, *args) -> str:
    with pytest.raises(MotionError) as info:
        build(*args)
    return str(info.value)


def _path(*coords) -> tuple[Graph, tuple[int, int], tuple[RationalFunction, ...]]:
    """The path 0-1-...-k pinned at (0, 1), with the given coordinates."""
    n = len(coords)
    return Graph.of(n, [(k, k + 1) for k in range(n - 1)]), (0, 1), coords


def _bad_coordinates():
    """(what, graph, fixed edge, coordinates) that are no motion."""
    zero, one = RationalFunction.const(0), RationalFunction.const(1)
    t = RationalFunction.of(Poly.of([0, 1]))
    deltoid = bundled_motion("deltoid")
    q1 = bundled_motion("q1")
    raised, shifted = list(deltoid.coords), list(deltoid.coords)
    raised[2] = raised[2] + t  # deg dN > deg D
    shifted[3] = shifted[3] + one  # deg dN = deg D
    swapped = list(q1.coords)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    return [
        ("not constant", deltoid.graph, deltoid.fixed_edge, tuple(raised)),
        ("not constant", deltoid.graph, deltoid.fixed_edge, tuple(shifted)),
        ("not constant", *_path(zero, one, one + t)),
        ("not constant", q1.graph, q1.fixed_edge, tuple(swapped)),
        ("squared length 0", *_path(zero, one, one)),  # coinciding endpoints
        ("squared length 0", q1.graph, q1.fixed_edge, (*q1.coords[:-1], q1.coords[0])),
        ("coordinate count", deltoid.graph, deltoid.fixed_edge, deltoid.coords[:3]),
    ]


@pytest.mark.parametrize("case", range(7))
def test_error_text_matches_the_oracle(case):
    what, g, fixed, coords = _bad_coordinates()[case]
    text = _error_text(ParametrizedMotion, g, fixed, coords)
    assert what in text
    assert text == _error_text(oracle.edge_tables, g, fixed, coords)


def test_cold_classify_builds_no_construction_table(monkeypatch):
    built = []
    table = vars(ParametrizedMotion)["_w"]

    def counted(m):
        built.append(m)
        return table.func(m)

    counting = cached_property(counted)
    counting.__set_name__(ParametrizedMotion, "_w")
    monkeypatch.setattr(ParametrizedMotion, "_w", counting)
    monkeypatch.setattr(decide, "_CATALOG_CERT_CACHE", {})
    _unit_deltoid.cache_clear()
    try:
        certs = [decide.classify(catalog_graph(name)).certificate for name in CATALOG_NAMES]
        frame = _unit_deltoid().motion
    finally:
        _unit_deltoid.cache_clear()
    built_motions = [c.motion for c in certs if c.construction in ("grid", "two_nac")]
    assert len(built_motions) == 12
    assert all("_w" not in vars(m) for m in built_motions)
    # the one table read: the unit deltoid frame's, whose W are the frames
    assert built == [frame]
