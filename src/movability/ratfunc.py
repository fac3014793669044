"""Rational functions of one variable over Q(i), places, and valuations.

A place is a Gaussian-rational point of the parameter line, the roots of
an element of a gcd-free base (see `exact.gcd_free_base`) that no closed
form splits, which share every valuation, or the point at infinity; the
valuation of a function at a place is the order of vanishing there (pole
orders negative).  This is exactly the discrete data the edge functions
of a motion are probed for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    P_ONE,
    P_ZERO,
    Poly,
    multiplicity,
    poly_gcd,
    root_multiplicity,
)


@dataclass(frozen=True)
class Place:
    """A Gaussian-rational point t0; else, when poly is set, the roots of
    poly, a monic square-free base element that closed forms leave whole:
    a quadratic irreducible over Q(i), or of degree 3 or more, whose roots
    may lie in Q(i); else infinity.  A polynomial place is named by its
    polynomial."""

    point: GaussianRational | None
    poly: Poly | None = None

    @property
    def is_infinity(self) -> bool:
        return self.point is None and self.poly is None

    def __str__(self) -> str:
        if self.point is not None:
            return str(self.point)
        return "oo" if self.poly is None else str(self.poly)


INFINITY = Place(None)


@dataclass(frozen=True)
class RationalFunction:
    """num/den in canonical form: gcd(num, den) = 1 and den monic."""

    num: Poly
    den: Poly

    @staticmethod
    def of(num: Poly, den: Poly = P_ONE) -> "RationalFunction":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        return _canonical(num, den)

    @staticmethod
    def const(c) -> "RationalFunction":
        return RationalFunction.of(Poly.const(c))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        """a/b + c/d in canonical form, by Henrici's rule: with
        g = gcd(b, d), b = b'g and d = d'g, the sum is (a d' + c b')/(b' d' g),
        and only a factor of g can cancel from it, so one more gcd, with g
        alone, leaves it canonical."""
        a, b, c, d = self.num, self.den, other.num, other.den
        g = poly_gcd(b, d)
        if g.degree == 0:
            return _canonical(a * d + c * b, b * d)
        b, d = b // g, d // g
        t = a * d + c * b
        h = poly_gcd(t, g)
        if h.degree > 0:
            t, g = t // h, g // h
        return _canonical(t, b * d * g)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        # Henrici: in (a/b)(c/d) only a with d and c with b can share factors
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return ZERO
        g1, g2 = poly_gcd(a, d), poly_gcd(c, b)
        if g1.degree > 0:
            a, d = a // g1, d // g1
        if g2.degree > 0:
            c, b = c // g2, b // g2
        return _canonical(a * c, b * d)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return self * _canonical(other.den, other.num)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return GR_ZERO if self.num.is_zero() else self.num.coeffs[0]

    def conjugate_coeffs(self) -> "RationalFunction":
        # conjugation is a ring automorphism: it keeps gcd 1 and a monic den
        return RationalFunction(self.num.conjugate_coeffs(), self.den.conjugate_coeffs())

    def __call__(self, t: GaussianRational) -> GaussianRational:
        d = self.den(t)
        if d.is_zero():
            raise ZeroDivisionError(f"pole at t = {t}")
        return self.num(t) / d

    def eval_float(self, t: float) -> complex:
        num = sum(complex(c) * t**k for k, c in enumerate(self.num.coeffs))
        den = sum(complex(c) * t**k for k, c in enumerate(self.den.coeffs))
        return num / den

    def __str__(self) -> str:
        if self.den == P_ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _canonical(num: Poly, den: Poly) -> RationalFunction:
    """num/den, already coprime, with den made monic."""
    if num.is_zero():
        return ZERO
    lead = den.leading()
    if lead == GR_ONE:
        return RationalFunction(num, den)
    inv = GR_ONE / lead
    return RationalFunction(num.scale(inv), den.scale(inv))


ZERO = RationalFunction(P_ZERO, P_ONE)


def valuation(f: RationalFunction, place: Place) -> int:
    """Order of vanishing of f at the place; poles count negative.

    At a finite point this is the multiplicity of (t - t0) in the numerator
    minus the denominator, at a polynomial place the exponent of its
    polynomial in each; at infinity it is deg(den) - deg(num).
    """
    if f.is_zero():
        raise ValueError("the zero function has no valuation")
    if place.is_infinity:
        return f.den.degree - f.num.degree
    if place.point is None:
        return multiplicity(f.num, place.poly) - multiplicity(f.den, place.poly)
    t0 = place.point
    return root_multiplicity(f.num, t0) - root_multiplicity(f.den, t0)
