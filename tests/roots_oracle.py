"""The Z[i] divisor search, and the Gaussian-rational root search built on it.

The package finds places from closed forms, then the gcd-free base:
`exact.gaussian_rational_roots` splits a square-free part of degree one or
two in closed form and leaves any other whole, and `motion.candidate_places`
cuts what is left with `exact.gcd_free_base`.  The divisor search it used
for factors of degree 3 and up lives here, verbatim: a root of such a
factor is a unit times a divisor of the trailing coefficient over a divisor
of the leading one, with the divisors read off a factorization of their
norms by trial division.  `gaussian_rational_roots` below is the root search
in its earliest form, which peels every Gaussian-rational root off with the
divisor search; `tests/test_exact.py` checks the places against the roots
it finds.  `_poly_to_gaussian_ints`, which the package no longer needs,
lives on here with it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from movability.exact import (
    GR_ZERO,
    P_ONE,
    GaussianRational,
    Poly,
    RootReport,
    _gi_norm,
    _homogeneous,
    _quadratic_roots,
    root_multiplicity,
    square_free_part,
)


def _gi_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_divide(z: tuple[int, int], d: tuple[int, int]) -> tuple[int, int] | None:
    """Exact quotient z/d in Z[i], None when d does not divide z."""
    n = _gi_norm(d)
    if n == 0:
        raise ZeroDivisionError
    re = z[0] * d[0] + z[1] * d[1]
    im = z[1] * d[0] - z[0] * d[1]
    if re % n or im % n:
        return None
    return (re // n, im // n)


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _split_prime(p: int) -> tuple[int, int]:
    """Gaussian prime over a rational prime p = 1 mod 4 (or p = 2)."""
    if p == 2:
        return (1, 1)
    for a in range(1, math.isqrt(p) + 1):
        b2 = p - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            return (max(a, b), min(a, b))
    raise ArithmeticError(f"prime {p} has no two-square split")


def gaussian_integer_divisors(z: tuple[int, int]) -> list[tuple[int, int]]:
    """All divisors of z in Z[i], one per associate class (unit multiples omitted)."""
    if z == (0, 0):
        raise ValueError("zero has no divisor list")
    primes: list[tuple[tuple[int, int], int]] = []
    rest = z
    for p in sorted(_prime_factors(_gi_norm(z))):
        if p % 4 == 3:
            candidates = [(p, 0)]
        else:
            pi = _split_prime(p)
            # 1+i and 1-i are associates
            candidates = [pi] if p == 2 else [pi, (pi[0], -pi[1])]
        for prime in candidates:
            count = 0
            while (q := _gi_divide(rest, prime)) is not None:
                rest = q
                count += 1
            if count:
                primes.append((prime, count))
    divisors: list[tuple[int, int]] = [(1, 0)]
    for prime, count in primes:
        grown = []
        for d in divisors:
            power = d
            grown.append(power)
            for _ in range(count):
                power = _gi_mul(power, prime)
                grown.append(power)
        divisors = grown
    return divisors


_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _divisor_root(work: Poly) -> list[GaussianRational]:
    """The first root of work in Q(i) by the rational-root theorem over Z[i]
    (a unit times a divisor of the trailing coefficient over a divisor of
    the leading one), as a one-element list, or [] when there is none.
    Each candidate is reduced to (re + im i)/den with gcd(re, im, den) = 1,
    skipped if already tried, and tested by sum z[k] p^k den^(n-k) = 0 over
    Z[i].  Everything divides a zero trailing coefficient, and 0 is then a
    root."""
    z = work.z
    if z[0] == (0, 0):
        return [GR_ZERO]
    tried = set()
    for p in gaussian_integer_divisors(z[0]):
        for q in gaussian_integer_divisors(z[-1]):
            # p/q = p*conj(q)/N(q)
            base, norm = _gi_mul(p, (q[0], -q[1])), _gi_norm(q)
            for u in _UNITS:
                re, im = _gi_mul(base, u)
                g = math.gcd(re, im, norm)
                cand = (re // g, im // g, norm // g)
                if cand in tried:
                    continue
                tried.add(cand)
                if _homogeneous(z, cand[:2], cand[2]) == (0, 0):
                    return [GaussianRational(Fraction(cand[0], cand[2]), Fraction(cand[1], cand[2]))]
    return []


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
