"""Rational functions of one variable over Q(i), places, and valuations.

A place is either a Gaussian-rational point of the parameter line or the
point at infinity; the valuation of a function at a place is the order of
vanishing there (pole orders negative).  This is exactly the discrete data
the edge functions of a motion are probed for.
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
    poly_gcd,
    root_multiplicity,
)


@dataclass(frozen=True)
class Place:
    """A Gaussian-rational point t0, or infinity when point is None."""

    point: GaussianRational | None

    @property
    def is_infinity(self) -> bool:
        return self.point is None

    def conjugate(self) -> "Place":
        return self if self.is_infinity else Place(self.point.conjugate())

    def __str__(self) -> str:
        return "oo" if self.is_infinity else str(self.point)


INFINITY = Place(None)


def place_at(re, im=0) -> Place:
    return Place(GaussianRational.of(re, im))


@dataclass(frozen=True)
class RationalFunction:
    """num/den in canonical form: gcd(num, den) = 1 and den monic."""

    num: Poly
    den: Poly

    @staticmethod
    def of(num: Poly, den: Poly = P_ONE) -> "RationalFunction":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return RationalFunction(P_ZERO, P_ONE)
        g = poly_gcd(num, den)
        num = num // g
        den = den // g
        lead = den.leading()
        return RationalFunction(num.scale(GR_ONE / lead), den.monic())

    @staticmethod
    def const(c) -> "RationalFunction":
        return RationalFunction.of(Poly.const(c))

    @staticmethod
    def variable() -> "RationalFunction":
        return RationalFunction.of(Poly.variable())

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.of(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.of(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction.of(self.num * other.den, self.den * other.num)

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


def rf(num_coeffs, den_coeffs=(1,)) -> RationalFunction:
    return RationalFunction.of(Poly.of(num_coeffs), Poly.of(den_coeffs))


def valuation(f: RationalFunction, place: Place) -> int:
    """Order of vanishing of f at the place; poles count negative.

    At a finite point this is the multiplicity of (t - t0) in the numerator
    minus the denominator; at infinity it is deg(den) - deg(num).
    """
    if f.is_zero():
        raise ValueError("the zero function has no valuation")
    if place.is_infinity:
        return f.den.degree - f.num.degree
    t0 = place.point
    return root_multiplicity(f.num, t0) - root_multiplicity(f.den, t0)
