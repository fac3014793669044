"""`exact.Poly` on Gaussian integers against the Fraction form it replaced.

`tests/poly_oracle.py` keeps the old class, whose coefficients are
`GaussianRational`s.  Every operation must give the same coefficients on
both, and two constructions of one value must be equal and hash alike,
since the integer form is unique only when it is kept in lowest terms.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poly_oracle as oracle
from movability.exact import GaussianRational, Poly, poly_gcd, square_free_part

parts = st.fractions(min_value=-40, max_value=40, max_denominator=12)
gaussians = st.builds(GaussianRational, parts, parts)
# leading coefficients of large norm, so pseudo-division multiplies often
large_parts = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**3))
large_gaussians = st.builds(GaussianRational, large_parts, large_parts).filter(bool)
coefficient_lists = st.lists(gaussians, max_size=5)


@st.composite
def divisors(draw):
    """Zero, a constant, or a polynomial whose leading coefficient is a
    Gaussian rational of large norm."""
    kind = draw(st.sampled_from(["zero", "constant", "general"]))
    if kind == "zero":
        return []
    if kind == "constant":
        return [draw(large_gaussians)]
    return draw(st.lists(gaussians, min_size=1, max_size=3)) + [draw(large_gaussians)]


def both(coeffs):
    return Poly.of(coeffs), oracle.Poly.of(coeffs)


def same(new: Poly, old: oracle.Poly) -> bool:
    return new.coeffs == old.coeffs and new.degree == old.degree and str(new) == str(old)


@given(coefficient_lists, coefficient_lists, gaussians)
@settings(max_examples=200, deadline=None)
def test_ring_operations_match_the_oracle(a, b, t):
    (na, oa), (nb, ob) = both(a), both(b)
    assert same(na, oa)
    assert same(na + nb, oa + ob)
    assert same(-na, -oa)
    assert same(na * nb, oa * ob)
    assert same(na.monic(), oa.monic())
    assert same(na.derivative(), oa.derivative())
    assert same(na.conjugate_coeffs(), oa.conjugate_coeffs())
    assert na(t) == oa(t)
    if a and not na.is_zero():
        assert na.leading() == oa.leading()


@given(st.lists(gaussians, max_size=7), divisors())
@settings(max_examples=200, deadline=None)
def test_divmod_matches_the_oracle(a, b):
    (na, oa), (nb, ob) = both(a), both(b)
    if ob.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(na, nb)
        return
    (nq, nr), (oq, orem) = divmod(na, nb), divmod(oa, ob)
    assert same(nq, oq) and same(nr, orem)
    assert nq * nb + nr == na


@given(coefficient_lists, coefficient_lists, coefficient_lists)
@settings(max_examples=150, deadline=None)
def test_gcd_and_square_free_part_match_the_oracle(common, a, b):
    # a shared factor, so the gcd is not always 1
    (nc, oc), (na, oa), (nb, ob) = both(common), both(a), both(b)
    assert same(poly_gcd(nc * na, nc * nb), oracle.poly_gcd(oc * oa, oc * ob))
    assert same(square_free_part(nc * nc * na), oracle.square_free_part(oc * oc * oa))


@given(coefficient_lists, st.lists(gaussians, min_size=1, max_size=3), large_gaussians)
@settings(max_examples=150, deadline=None)
def test_one_value_has_one_form(a, b, c):
    p, q = Poly.of(a), Poly.of(b)
    inverse = GaussianRational.of(1) / c
    constructions = [
        p.scale(c).scale(inverse),
        (p * q) // q if not q.is_zero() else p,
        p + q + -q,
        Poly.of(p.coeffs),
        p.conjugate_coeffs().conjugate_coeffs(),
    ]
    for other in constructions:
        assert other == p and hash(other) == hash(p)
        assert (other.z, other.d) == (p.z, p.d)
