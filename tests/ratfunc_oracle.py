"""Rational-function arithmetic with one gcd per operation.

These are the formulas `ratfunc.RationalFunction` used before it split its
gcds (Henrici): a sum or product is formed over the full product of the
denominators and then reduced by one gcd of the whole numerator and
denominator, and a quotient multiplies crosswise.  Canonical forms are
unique, so `tests/test_ratfunc.py` asserts that the operators return
exactly what these return.
"""

from __future__ import annotations

from movability.exact import GR_ONE, P_ONE, P_ZERO, Poly, poly_gcd
from movability.ratfunc import RationalFunction


def of(num: Poly, den: Poly = P_ONE) -> RationalFunction:
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return RationalFunction(P_ZERO, P_ONE)
    g = poly_gcd(num, den)
    num = num // g
    den = den // g
    lead = den.leading()
    return RationalFunction(num.scale(GR_ONE / lead), den.monic())


def add(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return of(f.num * g.den + g.num * f.den, f.den * g.den)


def sub(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return add(f, RationalFunction(-g.num, g.den))


def mul(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return of(f.num * g.num, f.den * g.den)


def div(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    if g.is_zero():
        raise ZeroDivisionError("division by the zero function")
    return of(f.num * g.den, f.den * g.num)
