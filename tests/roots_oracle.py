"""The Gaussian-rational root search as it was before it became one loop.

`exact.gaussian_rational_roots` now peels one root per pass and records and
divides it out in one place.  This is the earlier form, kept verbatim: it
records a root in three places (the degree-one branch, the degree-two
branch and the divisor search).  `tests/test_exact.py` asserts that both
return the same report.  `_poly_to_gaussian_ints`, which the package no
longer needs, lives on here with it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from movability.exact import (
    _UNITS,
    GR_ZERO,
    P_ONE,
    GaussianRational,
    Poly,
    RootReport,
    _quadratic_roots,
    gaussian_integer_divisors,
    root_multiplicity,
    square_free_part,
)


def _poly_to_gaussian_ints(f: Poly) -> list[tuple[int, int]]:
    lcm = 1
    for c in f.coeffs:
        lcm = math.lcm(lcm, c.re.denominator, c.im.denominator)
    return [(int(c.re * lcm), int(c.im * lcm)) for c in f.coeffs]


def gaussian_rational_roots(f: Poly) -> RootReport:
    """Every root of f in Q(i), with multiplicity, found exactly.

    Strategy: strip powers of t, pass to the square-free part, peel roots by
    the rational-root theorem over Z[i] (divisors of the trailing and leading
    coefficients, times units), with the quadratic formula finishing degree
    two.  The monic product of factors that admit no Q(i) root is reported
    as unresolved.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    roots: list[tuple[GaussianRational, int]] = []
    k = 0
    while f.coeffs[0].is_zero():
        f = Poly.of(f.coeffs[1:])
        k += 1
    if k:
        roots.append((GR_ZERO, k))
    if f.degree <= 0:
        return RootReport(tuple(roots), P_ONE)
    original = f
    work = square_free_part(f)
    while work.degree >= 1:
        if work.degree == 1:
            r = -work.coeffs[0] / work.coeffs[1]
            roots.append((r, root_multiplicity(original, r)))
            work = P_ONE
            break
        if work.degree == 2:
            found = _quadratic_roots(work)
            for r in found:
                roots.append((r, root_multiplicity(original, r)))
                work = work // Poly.of([-r, 1])
            break
        ints = _poly_to_gaussian_ints(work)
        trailing, leading = ints[0], ints[-1]
        hit = None
        for p in gaussian_integer_divisors(trailing):
            for q in gaussian_integer_divisors(leading):
                base = GaussianRational(Fraction(p[0], 1), Fraction(p[1], 1)) / GaussianRational(
                    Fraction(q[0], 1), Fraction(q[1], 1)
                )
                for u in _UNITS:
                    cand = base * GaussianRational.of(u[0], u[1])
                    if work(cand).is_zero():
                        hit = cand
                        break
                if hit is not None:
                    break
            if hit is not None:
                break
        if hit is None:
            break
        roots.append((hit, root_multiplicity(original, hit)))
        work = work // Poly.of([-hit, 1])
    unresolved = work.monic() if work.degree >= 1 else P_ONE
    roots.sort(key=lambda pair: (pair[0].re, pair[0].im))
    return RootReport(tuple(roots), unresolved)
