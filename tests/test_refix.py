"""Refixed motions against the validating constructor.

`refix_edge` computes the rotated coordinates (z - z_u') * R with
R = Z_{u',v'}/L and passes them to `ParametrizedMotion`, whose checks prove
the refix's labeling like any motion's.  Here every refix, and refixes of
refixes, are rebuilt from coordinates computed with the one-gcd oracle
arithmetic and passed through the same constructor; the coordinates, W
tables and labelings must be equal.  A fresh refix builds its W table only
when a query first reads it, and that table is `motion_oracle`'s W.  The
L1-L6, Q1 and S5 refixes are `test_edge_table`'s cached ones.
"""

from itertools import combinations

import pytest

import motion_oracle
import ratfunc_oracle as oracle
from conftest import bundled_motion
from movability.exact import GaussianRational, fraction_sqrt
from movability.graphs import edge
from movability.motion import (
    MotionError,
    ParametrizedMotion,
    refix_edge,
    w_function,
)
from movability.ratfunc import RationalFunction
from test_edge_table import L_GRAPHS, _motions

HALVES = ("1/2", "3/2", "5/2", "7/2", "9/2")
NAMES = (
    *(f"deltoid-{s}" for s in HALVES),
    "q1",
    *(f"s5-{a}" for a in ("3/2", "2", "5/2", "7/2", "9/2")),
    *L_GRAPHS,
)


def _const(x) -> RationalFunction:
    return RationalFunction.const(GaussianRational.of(x))


def _rebuilt(m: ParametrizedMotion, u2: int, v2: int) -> ParametrizedMotion:
    """The refix of m to (u2, v2) from its coordinates alone, in oracle
    arithmetic, through the validating constructor."""
    lam = fraction_sqrt(m.induced_labeling()[edge(u2, v2)])
    z0 = m.coords[u2]
    rotation = oracle.mul(oracle.sub(m.coords[v2], z0).conjugate_coeffs(), _const(1 / lam))
    coords = tuple(oracle.mul(oracle.sub(z, z0), rotation) for z in m.coords)
    return ParametrizedMotion(m.graph, (u2, v2), coords)


def _assert_same(m: ParametrizedMotion, expected: ParametrizedMotion):
    assert m.fixed_edge == expected.fixed_edge
    assert m.coords == expected.coords
    assert m.induced_labeling() == expected.induced_labeling()
    for u, v in m.graph.sorted_edges():
        assert w_function(m, u, v) == w_function(expected, u, v)


@pytest.mark.parametrize("name", NAMES)
def test_refix_matches_the_validating_constructor(name):
    m, *refixes = _motions(name)
    assert refixes
    for r in refixes:
        _assert_same(r, _rebuilt(m, *r.fixed_edge))
        # refixing back to the original pin undoes the rotation exactly
        _assert_same(refix_edge(r, *m.fixed_edge), m)
    # a refix of a refix, away from the original pin
    first, *_, second = (r for r in refixes if r.fixed_edge != m.fixed_edge)
    twice = refix_edge(first, *second.fixed_edge)
    _assert_same(twice, _rebuilt(first, *second.fixed_edge))
    _assert_same(twice, second)


@pytest.mark.parametrize("name", NAMES)
def test_fresh_refix_builds_the_oracle_table_when_read(name):
    # fresh refixes: the cached ones of `_motions` have had their tables read
    m = bundled_motion(name)
    refixes = [refix_edge(m, *r.fixed_edge) for r in _motions(name)[1:]]
    assert all("_w" not in vars(r) for r in refixes)
    # refixing reads the parent's table, so the check above comes first
    first, *_, second = (r for r in refixes if r.fixed_edge != m.fixed_edge)
    twice = refix_edge(first, *second.fixed_edge)
    assert "_w" not in vars(twice)
    for r in (*refixes, twice):
        w, lab = motion_oracle.edge_tables(r.graph, r.fixed_edge, r.coords)
        assert r.induced_labeling() == lab
        assert r._w == w


@pytest.mark.parametrize("name", NAMES)
def test_irrational_edges_are_refused_as_before(name):
    m, *refixes = _motions(name)
    refixed = {r.fixed_edge for r in refixes}
    for u, v in m.graph.sorted_edges():
        lam_sq = m.induced_labeling()[(u, v)]
        if fraction_sqrt(lam_sq) is not None:
            assert (u, v) in refixed
            continue
        message = f"edge ({u},{v}) has irrational length sqrt({lam_sq}); exact refix impossible"
        with pytest.raises(MotionError) as err:
            refix_edge(m, u, v)
        assert str(err.value) == message
    u, v = next(p for p in combinations(range(m.graph.n), 2) if p not in m.graph.edges)
    with pytest.raises(MotionError) as err:
        refix_edge(m, u, v)
    assert str(err.value) == f"({u},{v}) is not an edge"
