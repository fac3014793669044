import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roots_oracle
from movability.constructions import s5_motion
from movability.exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    P_ONE,
    GaussianRational,
    Poly,
    RootReport,
    fraction_sqrt,
    gaussian_rational_roots,
    gcd_free_base,
    multiplicity,
    poly_gcd,
    root_multiplicity,
    square_free_part,
)
from movability.motion import ParametrizedMotion, candidate_places, w_function
from movability.ratfunc import (
    INFINITY,
    Place,
    RationalFunction,
    valuation,
)
from conftest import gr, place_at, rf
from test_edge_table import NAMES, _motions

small_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


@given(gaussians, gaussians, gaussians)
@settings(max_examples=150)
def test_field_axioms_sample(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


@given(gaussians)
def test_conjugation_norm(a):
    assert (a * a.conjugate()).re == a.norm()
    assert (a * a.conjugate()).im == 0


@pytest.mark.parametrize("make", [lambda: GaussianRational.of(True), lambda: GaussianRational.of(1, False),
                                  lambda: Poly.of([True]), lambda: GaussianRational.of(0.5)],
                         ids=["of-true", "of-imaginary-false", "poly-of-true", "of-float"])
def test_exact_reader_refuses_bools_and_floats(make):
    # Fraction(True) == 1 and Fraction(0.5) == 1/2, so only the type decides
    with pytest.raises(TypeError, match="as an exact rational"):
        make()


def test_gaussian_sqrt():
    assert gr(-1).sqrt() == GR_I
    assert gr(Fraction(9, 4)).sqrt() == gr(Fraction(3, 2))
    assert gr(0, 2).sqrt() == gr(1, 1)  # (1+i)^2 = 2i
    assert gr(3).sqrt() is None
    assert GR_I.sqrt() is None  # sqrt(i) is not Gaussian rational
    two_i = gr(0, -2)
    s = two_i.sqrt()
    assert s is not None and s * s == two_i


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(49, 25)) == Fraction(7, 5)
    assert fraction_sqrt(Fraction(2)) is None
    assert fraction_sqrt(Fraction(0)) == 0


def test_poly_divmod_and_gcd():
    # (t^2+1)(t+2) against (t^2+1)(t-3)
    a = Poly.of([1, 0, 1]) * Poly.of([2, 1])
    b = Poly.of([1, 0, 1]) * Poly.of([-3, 1])
    g = poly_gcd(a, b)
    assert g == Poly.of([1, 0, 1])
    # a nonzero constant on either side gives 1, and 0 gives the other side monic
    for c in (Poly.const(gr(3, -2)), Poly.const(gr(Fraction(1, 2)))):
        assert poly_gcd(c, a) == poly_gcd(a, c) == Poly.of([1])
    assert poly_gcd(Poly.of([]), b) == poly_gcd(b, Poly.of([])) == b.monic()
    assert poly_gcd(Poly.of([]), b.scale(gr(0, 2))) == b.monic()
    q, r = divmod(a, Poly.of([2, 1]))
    assert r.is_zero() and q == Poly.of([1, 0, 1])


def test_square_free_part():
    f = Poly.of([1, 1]) * Poly.of([1, 1]) * Poly.of([-2, 1])
    sf = square_free_part(f)
    assert sf == (Poly.of([1, 1]) * Poly.of([-2, 1])).monic()
    assert root_multiplicity(f, gr(-1)) == 2
    assert root_multiplicity(f, gr(2)) == 1
    assert root_multiplicity(f, gr(5)) == 0


def test_gcd_free_base_and_multiplicity():
    # Yun's pieces of 3(t+1)^2(t-2), the roots of multiplicity one first
    f = Poly.const(3) * Poly.of([1, 1]) * Poly.of([1, 1]) * Poly.of([-2, 1])
    assert gcd_free_base([f]) == (Poly.of([-2, 1]), Poly.of([1, 1]))
    assert multiplicity(f, Poly.of([1, 1])) == 2
    assert multiplicity(f, Poly.of([-2, 1])) == 1
    assert multiplicity(f, Poly.of([-5, 1])) == 0
    assert gcd_free_base([Poly.const(7), f.derivative().derivative()]) == (Poly.of([0, 1]),)
    with pytest.raises(ValueError):
        multiplicity(Poly.of([]), Poly.of([-2, 1]))

def test_gaussian_integer_divisors():
    divs = roots_oracle.gaussian_integer_divisors((5, 0))
    norms = sorted({d[0] * d[0] + d[1] * d[1] for d in divs})
    assert norms == [1, 5, 25]  # units, 2+-i, 5
    divs2 = roots_oracle.gaussian_integer_divisors((1, 1))
    assert sorted({d[0] * d[0] + d[1] * d[1] for d in divs2}) == [1, 2]


def test_roots_of_deltoid_denominator():
    # (t^2 + 1)(t^2 + 4) is square-free of degree 4, so no closed form
    # applies and it is left whole; each quadratic factor splits
    f = Poly.of([4, 0, 5, 0, 1])
    assert gaussian_rational_roots(f) == RootReport((), f)
    for factor, roots in ((Poly.of([1, 0, 1]), (gr(0, -1), gr(0, 1))),
                          (Poly.of([4, 0, 1]), (gr(0, -2), gr(0, 2)))):
        assert gaussian_rational_roots(factor) == RootReport(tuple((r, 1) for r in roots), P_ONE)


def test_roots_with_multiplicity_and_zero():
    # t^2 (t - 3/2)^2: a square-free part of degree two, split with each
    # root's multiplicity in f, 0 included
    f = Poly.of([0, 0, 1]) * Poly.of([Fraction(-3, 2), 1]) * Poly.of([Fraction(-3, 2), 1])
    assert gaussian_rational_roots(f) == RootReport(((gr(0), 2), (gr(Fraction(3, 2)), 2)), P_ONE)
    # times (t + i), the square-free part t (t - 3/2)(t + i) is a cubic, left
    # whole as the residue
    g = f * Poly.of([(0, 1), 1])
    cubic = Poly.of([0, 1]) * Poly.of([Fraction(-3, 2), 1]) * Poly.of([(0, 1), 1])
    assert gaussian_rational_roots(g) == RootReport((), cubic)


def test_unresolved_factor_is_reported():
    # t^2 - i is irreducible over Q(i)
    report = gaussian_rational_roots(Poly.of([(0, -1), 0, 1]))
    assert not report.roots
    assert report.unresolved == Poly.of([(0, -1), 0, 1])
    # mixed: (t-1)(t^2-i) is a cubic, left whole, root 1 and all
    f = Poly.of([(0, -1), 0, 1]) * Poly.of([-1, 1])
    report2 = gaussian_rational_roots(Poly.const(3) * f)
    assert not report2.roots
    assert report2.unresolved == f


def test_higher_degree_divisor_search():
    # (t-1)(t-2)(t-3)(t+5i) needs the Z[i] divisor route at degree 4
    f = Poly.of([-1, 1]) * Poly.of([-2, 1]) * Poly.of([-3, 1]) * Poly.of([(0, 5), 1])
    report = roots_oracle.gaussian_rational_roots(f)
    assert {str(r) for r, _ in report.roots} == {"1", "2", "3", "-5i"}
    assert [str(r) for r in _divisor_search_roots(f)] == ["-5i", "1", "2", "3"]


# small coefficients keep the divisor search over Z[i] fast
small_parts = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
small_gaussians = st.builds(GaussianRational, small_parts, small_parts)
small_integers = st.builds(GaussianRational.of, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def products_over_q_i(draw):
    """A product over Q(i) of linear factors with multiplicity, irreducible
    quadratics (t - s)^2 - c with c no square in Q(i), and a cubic."""
    f = Poly.const(draw(small_gaussians.filter(bool)))
    for _ in range(draw(st.integers(0, 3))):
        linear = Poly.of([-draw(small_gaussians), 1])
        for _ in range(draw(st.integers(1, 2))):
            f = f * linear
    if draw(st.booleans()):
        s = draw(small_integers)
        c = draw(small_integers.filter(lambda c: c.sqrt() is None))
        f = f * Poly.of([s * s - c, -(s + s), 1])
    if draw(st.booleans()):
        f = f * Poly.of([*draw(st.lists(small_integers, min_size=3, max_size=3)), 1])
    return f


def _places_of(polys):
    """`candidate_places` of a motion-shaped stand-in whose edge table holds
    each polynomial as a W numerator over 1: the places read only that
    table, and no motion has W numerators drawn at will."""
    m = object.__new__(ParametrizedMotion)
    object.__setattr__(m, "_w", {(0, k): RationalFunction.of(f) for k, f in enumerate(polys, 1)})
    return candidate_places(m).places


def _on_one_place(places, r, functions):
    """Assert that the point r lies on exactly one of the places and that
    each function has the same valuation there as at r."""
    on = [p for p in places if p.point == r or (p.poly is not None and p.poly(r).is_zero())]
    assert len(on) == 1
    assert [valuation(f, on[0]) for f in functions] == [valuation(f, place_at(r.re, r.im)) for f in functions]


@given(st.lists(products_over_q_i(), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_root_search_matches_the_oracle(polys):
    # every root the Z[i] divisor search finds in any input lies on exactly
    # one place, with the valuations of every input it has there
    places = _places_of(polys)
    functions = [RationalFunction.of(f) for f in polys]
    for f in polys:
        for r, _ in roots_oracle.gaussian_rational_roots(f).roots:
            _on_one_place(places, r, functions)



# factors with no root in Q(i): i, 2 and -3 are no squares there, and 2 no cube
IRREDUCIBLE = (Poly.of([(0, -1), 0, 1]), Poly.of([-2, 0, 0, 1]), Poly.of([1, 1, 1]),
               Poly.of([-2, 0, 1]))


@st.composite
def factored_families(draw):
    """One to three polynomials, each a nonzero constant times one to three
    factors with multiplicities 1-3, drawn from a shared pool of linear
    factors and factors irreducible over Q(i), so the polynomials share
    factors and powers."""
    pool = [Poly.of([-r, 1]) for r in draw(st.lists(small_gaussians, min_size=1, max_size=3))]
    pool += draw(st.lists(st.sampled_from(IRREDUCIBLE), max_size=2))
    family = []
    for _ in range(draw(st.integers(1, 3))):
        f = Poly.const(draw(small_gaussians.filter(bool)))
        for _ in range(draw(st.integers(1, 3))):
            factor = draw(st.sampled_from(pool))
            for _ in range(draw(st.integers(1, 3))):
                f = f * factor
        family.append(f)
    return family


@given(factored_families())
@settings(max_examples=100, deadline=None)
def test_gcd_free_base_is_square_free_coprime_and_exact(family):
    base = gcd_free_base(family)
    for e in base:
        assert e.degree >= 1 and e.leading() == GR_ONE
        assert poly_gcd(e, e.derivative()) == P_ONE
    for e, e2 in combinations(base, 2):
        assert poly_gcd(e, e2) == P_ONE
    for f in family:
        product = Poly.const(f.leading())
        for e in base:
            for _ in range(multiplicity(f, e)):
                product = product * e
        assert product == f
        # each root the search finds lies on one element, whose exponent in
        # f is the root's multiplicity
        for r, k in gaussian_rational_roots(f).roots:
            on = [e for e in base if e(r).is_zero()]
            assert len(on) == 1 and multiplicity(f, on[0]) == k

def _wide_gaussian(rng, keep=lambda c: True):
    """The first drawn Gaussian rational that `keep` accepts, with parts up
    to +-40 over denominators up to 12: where the divisor search has the
    most candidates at degree one and two."""
    while True:
        c = gr(Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
               Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        if keep(c):
            return c


def _low_degree_polys():
    """102 seeded polynomials of degree one and two with the roots they were
    built from, each times a nonzero constant: 34 linear factors, 34
    products of two linear factors (nine of them a double root) and 34
    irreducible (t - s)^2 - c."""
    rng = random.Random(0)
    out = []
    for k in range(102):
        lead = Poly.const(_wide_gaussian(rng, bool))
        r = _wide_gaussian(rng)
        if k % 3 == 0:
            out.append((lead * Poly.of([-r, 1]), ((r, 1),)))
        elif k % 3 == 1:
            s = r if k % 12 == 1 else _wide_gaussian(rng)
            roots = ((r, 2),) if s == r else tuple(sorted(((r, 1), (s, 1))))
            out.append((lead * Poly.of([-r, 1]) * Poly.of([-s, 1]), roots))
        else:
            c = _wide_gaussian(rng, lambda c: c.sqrt() is None)
            out.append((lead * Poly.of([r * r - c, -(r + r), 1]), ()))
    return out


def _divisor_search_roots(f):
    """Every root of f in Q(i) that the divisor search alone peels off."""
    work, found = square_free_part(f), []
    while work.degree >= 1 and (hit := roots_oracle._divisor_root(work)):
        found += hit
        work = work // Poly.of([-hit[0], 1])
    return sorted(found)


def test_low_degree_roots_with_wide_coefficients():
    # -c0/c1 and the quadratic formula against the roots each polynomial was
    # built from and against the divisor search over Z[i], on coefficients
    # far larger than the strategy above draws
    shapes = Counter()
    for f, roots in _low_degree_polys():
        report = gaussian_rational_roots(f)
        assert report.roots == roots
        assert report.unresolved == (P_ONE if roots else f.monic())
        assert _divisor_search_roots(f) == [r for r, _ in roots]
        shapes[f.degree, tuple(m for _, m in roots)] += 1
    assert shapes == {(1, (1,)): 34, (2, (1, 1)): 25, (2, (2,)): 9, (2, ()): 34}


def test_low_degree_roots_skip_the_divisor_search():
    # a double root with a 20-digit prime in both parts, and the W
    # polynomials of degree at most two of S5 at a = 10^12 (among them
    # (a+1)+(a-1)it, whose root is i(a+1)/(a-1)), are solved in closed form
    a = Fraction(10**12)
    _, m = s5_motion(a)
    low = {p for w in m._w.values() for p in (w.num, w.den) if 1 <= p.degree <= 2}
    big = gr(Fraction(10**19 + 51, 3), Fraction(-(10**19 + 51), 7))  # 10^19 + 51 is prime
    f = Poly.const(gr(5, 11)) * Poly.of([-big, 1]) * Poly.of([-big, 1])
    assert gaussian_rational_roots(f).roots == ((big, 2),)
    roots = {r for p in low for r, _ in gaussian_rational_roots(p).roots}
    assert len(low) == 12 and gr(0, (a + 1) / (a - 1)) in roots


@pytest.mark.parametrize("name", ["deltoid", "q1", "s5-2"])
def test_root_search_matches_the_oracle_on_motions(name):
    # on the motion and each of its refixes, every root the oracle finds in
    # a W numerator or denominator lies on exactly one place, with the
    # valuation vector it has there; a polynomial the closed forms split
    # whole gets the oracle's report
    for m in _motions(name):
        places = candidate_places(m).places
        for w in m._w.values():
            for poly in (w.num, w.den):
                oracle = roots_oracle.gaussian_rational_roots(poly)
                for r, _ in oracle.roots:
                    _on_one_place(places, r, m._w.values())
                report = gaussian_rational_roots(poly)
                if report.unresolved == P_ONE:
                    assert report == oracle


# the scales and S5 parameters that perfbench's exact_inputs draws
BENCH_NAMES = (*(f"{kind}-{k}/2" for kind in ("deltoid", "q1") for k in range(1, 10, 2)),
               "s5-3/2", "s5-9/2")


@pytest.mark.parametrize("name", NAMES + BENCH_NAMES)
def test_gcd_free_base_of_motions_matches_the_oracle(name):
    # on the motion and each of its refixes, every root the oracle finds in
    # a W numerator or denominator lies on exactly one element of the base
    # of all of them, has that element's valuation vector and, as
    # multiplicity, its exponent; every element of these bases is linear,
    # and every place is a point or oo, since the benchmark's summary reads
    # the point of each finite place
    for m in _motions(name):
        base = gcd_free_base([p for w in m._w.values() for p in (w.num, w.den)])
        assert all(e.degree == 1 for e in base)
        assert all(place.poly is None for place in candidate_places(m).places)
        for w in m._w.values():
            for poly in (w.num, w.den):
                for r, k in roots_oracle.gaussian_rational_roots(poly).roots:
                    on = [e for e in base if e(r).is_zero()]
                    assert len(on) == 1 and multiplicity(poly, on[0]) == k
                    element = Place(None, on[0])
                    assert [valuation(w_function(m, *e), place_at(r.re, r.im)) for e in m._w] == \
                        [valuation(w_function(m, *e), element) for e in m._w]


def test_rational_function_canonical_form():
    # (t^2-1)/(t-1) reduces to t+1
    f = rf([-1, 0, 1], [-1, 1])
    assert f == rf([1, 1])
    assert str(f.den) == "(1)"
    with pytest.raises(ZeroDivisionError):
        rf([1], [0])


def test_rational_function_arithmetic():
    t = rf([0, 1])
    one = RationalFunction.const(1)
    f = (t * t - one) / (t + one)
    assert f == t - one
    assert (f - f).is_zero()
    assert (f / f) == one


def test_valuation_at_points_and_infinity():
    # 3(t+2i)/(t-2i)
    w = rf([(0, 6), 3], [(0, -2), 1])
    assert valuation(w, place_at(0, -2)) == 1
    assert valuation(w, place_at(0, 2)) == -1
    assert valuation(w, place_at(0, 1)) == 0
    assert valuation(w, INFINITY) == 0
    assert valuation(rf([0, 0, 5]), INFINITY) == -2
    assert valuation(rf([1], [0, 1]), INFINITY) == 1
    assert valuation(rf([7]), place_at(3)) == 0
    with pytest.raises(ValueError):
        valuation(rf([0]), INFINITY)


polys = st.lists(gaussians, max_size=4).map(Poly.of)


@given(polys, polys.filter(lambda p: not p.is_zero()))
@settings(max_examples=150)
def test_conjugate_coeffs_is_canonical(num, den):
    # oracle: conjugate, then canonicalize through the gcd again
    f = RationalFunction.of(num, den)
    assert f.conjugate_coeffs() == RationalFunction.of(
        f.num.conjugate_coeffs(), f.den.conjugate_coeffs()
    )


def test_eval_and_conjugate():
    w = rf([(0, 6), 3], [(0, -2), 1])
    z = w.conjugate_coeffs()
    prod = w * z
    assert prod.is_constant() and prod.constant_value() == gr(9)
