"""Polynomials over Q(i) as `exact.Poly` held them before Gaussian integers.

`exact.Poly` now keeps Gaussian-integer coefficients over one denominator.
This is the earlier form, kept verbatim: a tuple of `GaussianRational`
coefficients with every operation in `Fraction` arithmetic, and the
Euclidean gcd on it.  `square_free_part` is the package's, over this class.
`tests/test_poly.py` asserts that both classes give the same coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from movability.exact import GR_ONE, GR_ZERO, GaussianRational


@dataclass(frozen=True)
class Poly:
    """Dense polynomial, coefficients low degree first, no trailing zeros."""

    coeffs: tuple[GaussianRational, ...]

    @staticmethod
    def of(coeffs: Iterable) -> "Poly":
        out = []
        for c in coeffs:
            if isinstance(c, GaussianRational):
                out.append(c)
            elif isinstance(c, tuple):
                out.append(GaussianRational.of(*c))
            else:
                out.append(GaussianRational.of(c))
        while out and out[-1].is_zero():
            out.pop()
        return Poly(tuple(out))

    @staticmethod
    def const(c) -> "Poly":
        return Poly.of([c])

    @staticmethod
    def variable() -> "Poly":
        return Poly.of([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GaussianRational:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly.of(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly.of(out)

    def scale(self, c: GaussianRational) -> "Poly":
        return Poly.of([a * c for a in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [GR_ZERO] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading()
        # one inverse per call, none for a monic divisor (gcds, denominators)
        inverse = None if lead == GR_ONE else GR_ONE / lead
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            factor = rem[-1] if inverse is None else rem[-1] * inverse
            quot[k] = factor
            for j, c in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - factor * c
            while rem and rem[-1].is_zero():
                rem.pop()
        return Poly.of(quot), Poly.of(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(GR_ONE / self.leading())

    def derivative(self) -> "Poly":
        return Poly.of(
            [c * GaussianRational.of(k) for k, c in enumerate(self.coeffs)][1:]
        )

    def __call__(self, t: GaussianRational) -> GaussianRational:
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def conjugate_coeffs(self) -> "Poly":
        return Poly(tuple(c.conjugate() for c in self.coeffs))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(f"({c})")
            elif k == 1:
                parts.append(f"({c})*t")
            else:
                parts.append(f"({c})*t^{k}")
        return " + ".join(parts)


P_ZERO = Poly(())
P_ONE = Poly.of([1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm (Q(i) is a field).

    A nonzero constant on either side gives 1 without a division, the
    common case in rational-function arithmetic; gcd(0, b) is b made monic."""
    if a.degree == 0 or b.degree == 0:
        return P_ONE
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def square_free_part(f: Poly) -> Poly:
    """Product of the distinct irreducible factors of f, monic."""
    if f.degree <= 0:
        return P_ONE
    g = poly_gcd(f, f.derivative())
    return (f // g).monic()
