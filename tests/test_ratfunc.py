"""Henrici's gcd-splitting operators against the one-gcd oracle.

`RationalFunction` reduces a product by gcd(a, d) and gcd(c, b) and a sum
by gcd(b, d) and then gcd(t, gcd(b, d)); `ratfunc_oracle` reduces the full
numerator and denominator by one gcd.  Both return canonical forms, which
are unique, so the results must be equal.  The pairs cover zero, constants,
equal denominators, planted common factors across the two operands, and
sums that cancel to zero or to a constant.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratfunc_oracle as oracle
from movability.exact import GaussianRational, Poly
from movability.ratfunc import RationalFunction

from conftest import rf

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
gaussians = st.builds(GaussianRational, rationals, rationals)


@st.composite
def polys(draw, min_degree=0, max_degree=2):
    """A polynomial of exactly the drawn degree (nonzero leading coefficient)."""
    degree = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(gaussians, min_size=degree, max_size=degree))
    lead = draw(gaussians.filter(lambda c: not c.is_zero()))
    return Poly.of([*coeffs, lead])


@st.composite
def functions(draw):
    kind = draw(st.sampled_from(["zero", "constant", "general"]))
    if kind == "zero":
        return rf([0])
    if kind == "constant":
        return oracle.of(draw(polys(max_degree=0)))
    return oracle.of(draw(polys()), draw(polys()))


@st.composite
def pairs(draw):
    """Two functions, sometimes built to share or cancel factors."""
    kind = draw(st.sampled_from(
        ["independent", "equal-den", "planted", "shared-den", "cancel-zero", "cancel-const",
         "partial-cancel"]
    ))
    f = draw(functions())
    if kind == "independent":
        return f, draw(functions())
    p, q, r = draw(polys()), draw(polys()), draw(polys())
    h = draw(polys(min_degree=1))
    if kind == "equal-den":
        return oracle.of(p, q), oracle.of(r, q)
    if kind == "planted":
        # a numerator factor of one is a denominator factor of the other
        return oracle.of(p * h, q), oracle.of(r, draw(polys()) * h)
    if kind == "shared-den":
        return oracle.of(p, q * h), oracle.of(r, draw(polys()) * h * h)
    if kind == "cancel-zero":
        return f, RationalFunction(-f.num, f.den)
    if kind == "cancel-const":
        return f, oracle.sub(oracle.of(draw(polys(max_degree=0))), f)
    # h divides both denominators and the numerator of the sum
    e = oracle.of(p, h)
    return oracle.add(e, oracle.of(q, draw(polys()))), oracle.sub(oracle.of(r, draw(polys())), e)


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_operators_match_the_one_gcd_formulas(pair):
    f, g = pair
    assert f + g == oracle.add(f, g)
    assert g + f == oracle.add(g, f)
    assert f - g == oracle.sub(f, g)
    assert f * g == oracle.mul(f, g)
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            f / g
    else:
        assert f / g == oracle.div(f, g)


@settings(max_examples=100, deadline=None)
@given(polys(max_degree=3), polys(max_degree=3), polys(max_degree=1))
def test_of_matches_the_one_gcd_formula(num, den, common):
    assert RationalFunction.of(num * common, den * common) == oracle.of(num * common, den * common)
    assert RationalFunction.of(num, den) == oracle.of(num, den)


def test_equal_denominators_cancel_a_shared_factor():
    # b = (t - 1)(t - 2): t/b + (-1)/b = (t - 1)/b = 1/(t - 2), and a sum
    # equal to b is the constant 1
    b = [2, -3, 1]
    total = rf([0, 1], b) + rf([-1], b)
    assert total == RationalFunction(Poly.of([1]), Poly.of([-2, 1]))
    assert total == oracle.add(rf([0, 1], b), rf([-1], b))
    assert rf([2, -4], b) + rf([0, 1, 1], b) == rf([1])
    assert rf([0, 1], b) - rf([0, 1], b) == rf([0])
