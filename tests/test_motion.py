import time
from fractions import Fraction

import pytest

import roots_oracle
from movability.constructions import deltoid_motion, s5_motion
from movability.exact import GR_I, GaussianRational, Poly
from movability.graphs import Graph
from movability.motion import (
    MotionError,
    ParametrizedMotion,
    active_nac_colorings,
    all_valuation_tables,
    candidate_places,
    labeling_from_json,
    labeling_to_json,
    motion_from_json,
    motion_to_json,
    refix_edge,
    valuation_table,
    verify_injectivity,
    w_function,
    z_function,
)
from movability.nac import NacColoring, enumerate_nac
from movability.ratfunc import INFINITY, Place, RationalFunction, valuation

from conftest import cubic_motion, gr, place_at, rf, unresolved_motion
from test_nac import all_simple_cycles


@pytest.fixture(scope="module")
def deltoid():
    return deltoid_motion().motion


# edges of the four-cycle in the order the classical table lists them:
# (0,1), (1,2), (2,3), (0,3)
TABLE = {
    place_at(0, -1): {(0, 1): 0, (1, 2): 0, (2, 3): 1, (0, 3): 1},
    place_at(0, 1): {(0, 1): 0, (1, 2): 0, (2, 3): -1, (0, 3): -1},
    place_at(0, -2): {(0, 1): 0, (1, 2): 1, (2, 3): 0, (0, 3): 1},
    place_at(0, 2): {(0, 1): 0, (1, 2): -1, (2, 3): 0, (0, 3): -1},
}


def test_deltoid_w_functions_match_closed_forms(deltoid):
    w12 = w_function(deltoid, 1, 2)
    assert w12 == rf([(0, 6), 3], [(0, -2), 1])  # 3(t+2i)/(t-2i)
    w23 = w_function(deltoid, 2, 3)
    assert w23 == rf([(0, -3), -3], [(0, -1), 1])  # -3(t+i)/(t-i)
    w30 = w_function(deltoid, 3, 0)
    # -(t+i)(t+2i)/((t-i)(t-2i))
    num = -(rf([(0, 1), 1]) * rf([(0, 2), 1]))
    den = rf([(0, -1), 1]) * rf([(0, -2), 1])
    assert w30 == num / den
    assert w_function(deltoid, 0, 1).is_constant()
    assert w_function(deltoid, 0, 1).constant_value() == gr(1)


def test_w_antisymmetry_and_wz_identity(deltoid):
    lab = deltoid.induced_labeling()
    for u, v in deltoid.graph.sorted_edges():
        w = w_function(deltoid, u, v)
        assert (w + w_function(deltoid, v, u)).is_zero()
        prod = w * z_function(deltoid, u, v)
        assert prod.is_constant()
        assert prod.constant_value() == gr(lab[(u, v)])


def test_w_needs_edge_or_flag(deltoid):
    with pytest.raises(ValueError):
        w_function(deltoid, 0, 2)
    with pytest.raises(ValueError):
        w_function(deltoid, 1, 1)


def test_cycle_sums_vanish(deltoid):
    for cycle in all_simple_cycles(deltoid.graph):
        total_w = RationalFunction.const(0)
        total_z = RationalFunction.const(0)
        for a, b in zip(cycle, cycle[1:] + (cycle[0],)):
            total_w = total_w + w_function(deltoid, a, b)
            total_z = total_z + z_function(deltoid, a, b)
        assert total_w.is_zero() and total_z.is_zero()


def test_deltoid_candidate_places(deltoid):
    report = candidate_places(deltoid)
    finite = {str(p) for p in report.places if not p.is_infinity}
    assert finite == {"i", "-i", "2i", "-2i"}
    assert report.places[-1].is_infinity


def test_deltoid_valuation_tables(deltoid):
    for place, expected in TABLE.items():
        table = valuation_table(deltoid, place)
        assert table.as_dict() == expected
    at_infinity = valuation_table(deltoid, INFINITY)
    assert set(at_infinity.as_dict().values()) == {0}


def test_valuation_minimum_attained_twice(deltoid):
    for table in all_valuation_tables(deltoid):
        vals = table.as_dict()
        for cycle in all_simple_cycles(deltoid.graph):
            edges = [
                tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
                for i in range(len(cycle))
            ]
            level = min(vals[e] for e in edges)
            assert sum(1 for e in edges if vals[e] == level) >= 2


def test_deltoid_active_colorings(deltoid):
    report = active_nac_colorings(deltoid)
    assert len(report.colorings) == 4
    g = deltoid.graph
    expected = {
        frozenset({(2, 3), (0, 3)}),
        frozenset({(0, 1), (1, 2)}),
        frozenset({(1, 2), (0, 3)}),
        frozenset({(0, 1), (2, 3)}),
    }
    assert {c.red for c in report.colorings} == expected
    # the two non-active colorings of the cycle are the "opposite pairs"
    full = {c.red for c in enumerate_nac(g)}
    assert len(full) == 6
    inactive = full - expected
    assert inactive == {
        frozenset({(0, 1), (0, 3)}),
        frozenset({(1, 2), (2, 3)}),
    }
    for c in report.colorings:
        assert c.conjugate() in report.colorings


def test_active_set_of_constant_motion_is_empty():
    g = Graph.of(2, [(0, 1)])
    zero = RationalFunction.const(0)
    m = ParametrizedMotion(g, (0, 1), (zero, RationalFunction.const(1)))
    assert m.is_trivial()
    report = active_nac_colorings(m)
    assert report.colorings == frozenset()


def test_verify_compatibility_values(deltoid):
    lab = deltoid.induced_labeling()
    assert lab == {
        (0, 1): Fraction(1),
        (1, 2): Fraction(9),
        (2, 3): Fraction(9),
        (0, 3): Fraction(1),
    }


def test_perturbed_motion_rejected(deltoid):
    coords = list(deltoid.coords)
    coords[2] = coords[2] + rf([0, 1])
    with pytest.raises(MotionError):
        ParametrizedMotion(deltoid.graph, deltoid.fixed_edge, tuple(coords))


def test_injectivity_report(deltoid):
    report = verify_injectivity(deltoid)
    assert report.proper
    assert report.coinciding_pairs == ()


def test_refix_identity_and_to_far_edge(deltoid):
    same = refix_edge(deltoid, 0, 1)
    assert same.coords == deltoid.coords
    refixed = refix_edge(deltoid, 1, 2)
    assert refixed.fixed_edge == (1, 2)
    assert refixed.x(1).is_zero() and refixed.y(1).is_zero()
    assert refixed.x(2).is_constant()
    assert refixed.x(2).constant_value() == gr(3)
    assert refixed.y(2).is_zero()


def test_refix_preserves_labeling_and_active_set(deltoid):
    before_lab = deltoid.induced_labeling()
    before_active = {c.red for c in active_nac_colorings(deltoid).colorings}
    for e in [(1, 2), (2, 3), (0, 3)]:
        refixed = refix_edge(deltoid, *e)
        assert refixed.induced_labeling() == before_lab
        assert {c.red for c in active_nac_colorings(refixed).colorings} == before_active


def test_motion_json_round_trip(deltoid):
    text = motion_to_json(deltoid)
    back = motion_from_json(text)
    assert back.graph == deltoid.graph
    assert back.fixed_edge == tuple(deltoid.fixed_edge)
    assert back.coords == deltoid.coords


def test_labeling_json_round_trip(deltoid):
    lab = deltoid.induced_labeling()
    assert labeling_from_json(labeling_to_json(lab)) == lab
    with pytest.raises(ValueError):
        labeling_from_json('{"edges": [[0,1]], "lambda_sq": ["-1/2"]}')


def test_pinning_invariants_enforced():
    g = Graph.of(2, [(0, 1)])
    zero = RationalFunction.const(0)
    one = RationalFunction.const(1)
    i = RationalFunction.const(GR_I)
    with pytest.raises(MotionError):
        ParametrizedMotion(g, (0, 1), (one, one))  # origin broken
    with pytest.raises(MotionError):
        ParametrizedMotion(g, (0, 1), (zero, RationalFunction.const(-1)))
    t = rf([0, 1])
    with pytest.raises(MotionError):
        ParametrizedMotion(g, (0, 1), (zero, one + i * t))  # off the axis


def test_valuation_minimum_twice_on_richer_motions():
    from movability.catalog import q1_embedding_example
    from movability.constructions import (
        motion_from_embedding,
        s5_motion,
        two_nac_embedding,
    )
    from movability.nac import NacColoring

    g, r1, r2 = q1_embedding_example()
    q1 = motion_from_embedding(
        two_nac_embedding(g, NacColoring(g, r1), NacColoring(g, r2), seed=0),
        deltoid_motion(),
    )
    _, s5 = s5_motion(Fraction(2))
    for m in (q1, s5):
        for table in all_valuation_tables(m):
            vals = table.as_dict()
            for cycle in all_simple_cycles(m.graph):
                edges = [
                    tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
                    for i in range(len(cycle))
                ]
                level = min(vals[e] for e in edges)
                assert sum(1 for e in edges if vals[e] == level) >= 2


def test_constant_motion_has_only_the_infinite_place():
    g = Graph.of(2, [(0, 1)])
    zero = RationalFunction.const(0)
    m = ParametrizedMotion(g, (0, 1), (zero, RationalFunction.const(1)))
    report = candidate_places(m)
    assert [str(p) for p in report.places] == ["oo"]


def test_unsplit_factors_are_places():
    # W of edge (1, 2) is p/conj(p) with p irreducible over Q(i): the roots
    # of p are one place with valuations 0, +1 and those of conj(p) one with
    # 0, -1, so each activates a coloring (a conjugate pair)
    m = unresolved_motion()
    p = Poly.of([1, (0, 1), 1])
    report = candidate_places(m)
    assert report.places == (Place(None, p), Place(None, p.conjugate_coeffs()), INFINITY)
    assert [str(place) for place in report.places] == [str(p), str(p.conjugate_coeffs()), "oo"]
    assert not any(place.is_infinity for place in report.places[:-1])
    tables = [t.as_dict() for t in all_valuation_tables(m)]
    assert tables == [{(0, 1): 0, (1, 2): 1}, {(0, 1): 0, (1, 2): -1}, {(0, 1): 0, (1, 2): 0}]
    active = active_nac_colorings(m)
    assert {c.red for c in active.colorings} == {frozenset({(1, 2)}), frozenset({(0, 1)})}
    assert verify_injectivity(m).proper


def _oracle_active(m):
    """The red sets of thresholding the valuations at oo and at every root
    the Z[i] divisor search finds in a W numerator or denominator."""
    roots = {r for w in m._w.values() for poly in (w.num, w.den)
             for r, _ in roots_oracle.gaussian_rational_roots(poly).roots}
    found = set()
    for place in (*(place_at(r.re, r.im) for r in roots), INFINITY):
        vals = valuation_table(m, place).as_dict()
        for alpha in sorted(set(vals.values()))[:-1]:
            found.add(frozenset(e for e, v in vals.items() if v > alpha))
    return found


def test_cubic_factors_are_polynomial_places():
    # W of edge (1, 2) is p/conj(p) with p = (t - i)(t - 2i)(t - 1 - i): no
    # closed form splits a cubic and no other polynomial yields a point, so
    # p and conj(p), whose roots all lie in Q(i), are one place each, with
    # valuations +1 and -1; the active set is the one read off their six
    # roots
    m = cubic_motion()
    p = Poly.of([(0, -1), 1]) * Poly.of([(0, -2), 1]) * Poly.of([(-1, -1), 1])
    assert w_function(m, 1, 2) == RationalFunction.of(p, p.conjugate_coeffs())
    report = candidate_places(m)
    assert report.places == (Place(None, p), Place(None, p.conjugate_coeffs()), INFINITY)
    tables = [t.as_dict() for t in all_valuation_tables(m)]
    assert tables == [{(0, 1): 0, (1, 2): 1}, {(0, 1): 0, (1, 2): -1}, {(0, 1): 0, (1, 2): 0}]
    active = {c.red for c in active_nac_colorings(m).colorings}
    assert active == {frozenset({(1, 2)}), frozenset({(0, 1)})} == _oracle_active(m)


@pytest.mark.parametrize("a", [10**12, 10**19 + 52])
def test_s5_places_at_large_a(a):
    # the W numerator and denominator of S5's edge (4, 7) are cubics whose
    # end coefficients carry a^2 - 1; closed forms and the gcd-free base
    # find their places without factoring such numbers
    _, m = s5_motion(Fraction(a))
    start = time.perf_counter()
    places = candidate_places(m).places
    assert time.perf_counter() - start < 2
    start = time.perf_counter()
    active = active_nac_colorings(m).colorings
    assert time.perf_counter() - start < 2
    assert all(place.poly is None for place in places)
    at_two = active_nac_colorings(s5_motion(Fraction(2))[1]).colorings
    assert len(active) == 6 and {c.red for c in active} == {c.red for c in at_two}


def test_residue_places_leave_out_the_roots():
    # W of edge (1, 2) is f/conj(f) with f = (t - i)^2 (t^2 - i): the closed
    # forms leave f's square-free part, a cubic, whole, and the gcd-free base
    # parts the double root from t^2 - i, so +-i are points with valuations
    # +-2 and t^2 - i and t^2 + i are places with +-1
    lin, q = Poly.of([(0, -1), 1]), Poly.of([(0, -1), 0, 1])
    f = lin * lin * q
    one = RationalFunction.const(1)
    z2 = one + RationalFunction.of(f, f.conjugate_coeffs())
    m = ParametrizedMotion(Graph.of(3, [(0, 1), (1, 2)]), (0, 1), (RationalFunction.const(0), one, z2))
    report = candidate_places(m)
    assert report.places == (place_at(0, -1), place_at(0, 1), Place(None, q),
                             Place(None, q.conjugate_coeffs()), INFINITY)
    assert [t.as_dict()[(1, 2)] for t in all_valuation_tables(m)] == [-2, 2, 1, -1, 0]
    active = active_nac_colorings(m)
    assert {c.red for c in active.colorings} == {frozenset({(1, 2)}), frozenset({(0, 1)})}
    assert verify_injectivity(m).proper
