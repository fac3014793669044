"""Exact arithmetic over Q(i): Gaussian rationals, polynomials, roots.

The motion machinery needs the field Q(i) because the complex edge functions
(dx + i*dy) live there, and it needs the places of their numerators and
denominators (where valuations can separate edges).  A polynomial keeps
Gaussian-integer coefficients over one denominator (Knuth, TAOCP vol. 2,
4.6.1), so its arithmetic is int arithmetic; Gaussian rationals are points,
places and the coefficients read out of a polynomial.  Places come from
closed forms, then the gcd-free base: the square-free part of a polynomial
is split by -c0/c1 at degree one and the quadratic formula at degree two,
and what those leave is returned whole, never dropped.  A gcd-free base
(monic, square-free, pairwise coprime elements, built by gcds and exact
division alone) cuts such residues into pieces whose roots share one
multiplicity in each polynomial; the same closed forms split its elements
of degree one and two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable


def _as_fraction(x) -> Fraction:
    """The one exact-number reader: a Fraction, or an int or str by exact type,
    since a float only approximates its value and Fraction(True) == 1."""
    if type(x) is int or type(x) is str:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _fraction_str(x: Fraction) -> str:
    """The one exact-number writer: "p/q", which _as_fraction reads back."""
    return f"{x.numerator}/{x.denominator}"


def fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


@dataclass(frozen=True, order=True)
class GaussianRational:
    """Element re + im*i of Q(i), both parts exact fractions, ordered by
    (re, im)."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(_as_fraction(re), _as_fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return im
        return f"{self.re}{'+' if self.im > 0 else ''}{im}"

    def sqrt(self) -> "GaussianRational | None":
        """A w in Q(i) with w*w = self, if one exists."""
        a, b = self.re, self.im
        if b == 0:
            r = fraction_sqrt(a)
            if r is not None:
                return GaussianRational(r, Fraction(0))
            r = fraction_sqrt(-a)
            if r is not None:
                return GaussianRational(Fraction(0), r)
            return None
        s = fraction_sqrt(self.norm())
        if s is None:
            return None
        x = fraction_sqrt((a + s) / 2)
        if x is None or x == 0:
            return None
        return GaussianRational(x, b / (2 * x))


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))
GR_I = GaussianRational(Fraction(0), Fraction(1))


# -- polynomials in one variable over Q(i) ----------------------------------


@dataclass(frozen=True)
class Poly:
    """Dense polynomial over Q(i) held as Gaussian integers over one
    denominator: the value is sum (z[k][0] + z[k][1] i) t^k / d, with z low
    degree first and no trailing zeros, d a positive int and the gcd of d
    and every part 1.  That form is unique, so dataclass equality and
    hashing compare values.  Build one with `of` or `const`.
    """

    z: tuple[tuple[int, int], ...]
    d: int = 1

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
        return _poly(*_integer_pairs(out))

    @staticmethod
    def const(c) -> "Poly":
        return Poly.of([c])

    @cached_property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """The coefficients as Gaussian rationals, low degree first."""
        d = self.d
        return tuple(GaussianRational(Fraction(a, d), Fraction(b, d)) for a, b in self.z)

    @property
    def degree(self) -> int:
        return len(self.z) - 1

    def is_zero(self) -> bool:
        return not self.z

    def leading(self) -> GaussianRational:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        a, b = self.z[-1]
        return GaussianRational(Fraction(a, self.d), Fraction(b, self.d))

    def __add__(self, other: "Poly") -> "Poly":
        d = math.lcm(self.d, other.d)
        a, b = _times(self.z, d // self.d), _times(other.z, d // other.d)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, (x, y) in enumerate(b):
            u, v = out[k]
            out[k] = (u + x, v + y)
        return _poly(out, d)

    def __neg__(self) -> "Poly":
        return Poly(tuple(_times(self.z, -1)), self.d)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return P_ZERO
        size = len(self.z) + len(other.z) - 1
        re, im = [0] * size, [0] * size
        for i, (x, y) in enumerate(self.z):
            if not (x or y):
                continue
            for j, (u, v) in enumerate(other.z):
                re[i + j] += x * u - y * v
                im[i + j] += x * v + y * u
        return _poly(list(zip(re, im)), self.d * other.d)

    def scale(self, c: GaussianRational) -> "Poly":
        return self * Poly.const(c)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Pseudo-division by the monic divisor M/m, whose leading pair is
        (m, 0): the remainder is multiplied by m only when m does not divide
        its leading pair, and s counts those factors, so that
        s*z = Q*M + R over Z[i].  The quotient by other is Q*m/(s*d) over
        other's leading coefficient."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        monic = other.monic()
        divisor, m = monic.z, monic.d
        n = len(divisor) - 1
        steps = len(self.z) - n
        if steps <= 0:
            return P_ZERO, self
        rem = list(self.z)
        quot = [(0, 0)] * steps
        s = 1
        for k in range(steps - 1, -1, -1):
            a, b = rem.pop()
            if not (a or b):
                continue
            if a % m or b % m:
                rem, quot, s = _times(rem, m), _times(quot, m), s * m
            else:
                a, b = a // m, b // m
            quot[k] = (a, b)
            for j in range(n):
                u, v = divisor[j]
                x, y = rem[k + j]
                rem[k + j] = (x - a * u + b * v, y - a * v - b * u)
        if monic is other:
            q = _poly(_times(quot, m), s * self.d)
        else:
            # 1/lead = other.d * conj(L) / N(L) for the leading pair L
            lead = other.z[-1]
            q = _poly(_by_conjugate(_times(quot, m * other.d), lead), s * self.d * _gi_norm(lead))
        return q, _poly(rem, s * self.d)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        """z*conj(L)/N(L) for the leading pair L; self when already monic."""
        if self.is_zero() or self.z[-1] == (self.d, 0):
            return self
        lead = self.z[-1]
        return _poly(_by_conjugate(self.z, lead), _gi_norm(lead))

    def derivative(self) -> "Poly":
        return _poly([(k * x, k * y) for k, (x, y) in enumerate(self.z)][1:], self.d)

    def __call__(self, t: GaussianRational) -> GaussianRational:
        if self.is_zero():
            return GR_ZERO
        (point,), den = _integer_pairs([t])
        re, im = _homogeneous(self.z, point, den)
        den = den ** self.degree * self.d
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    def conjugate_coeffs(self) -> "Poly":
        return Poly(tuple((x, -y) for x, y in self.z), self.d)

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
P_ONE = Poly(((1, 0),))


def _times(z, k: int) -> list[tuple[int, int]]:
    """z times the int k, or z itself when k is 1."""
    return z if k == 1 else [(x * k, y * k) for x, y in z]


def _by_conjugate(z, pair: tuple[int, int]) -> list[tuple[int, int]]:
    """Each Gaussian integer of z times the conjugate of pair."""
    la, lb = pair
    return [(x * la + y * lb, y * la - x * lb) for x, y in z]


def _gi_norm(z: tuple[int, int]) -> int:
    return z[0] * z[0] + z[1] * z[1]


def _integer_pairs(cs: list[GaussianRational]) -> tuple[list[tuple[int, int]], int]:
    """Gaussian-integer pairs z and the least positive d with cs = z/d."""
    d = math.lcm(*(x.denominator for c in cs for x in (c.re, c.im)))
    return [(c.re.numerator * (d // c.re.denominator), c.im.numerator * (d // c.im.denominator))
            for c in cs], d


def _poly(z: list[tuple[int, int]], d: int) -> Poly:
    """z/d in lowest terms: trailing zeros dropped, then z and d divided by
    the gcd of d and every part."""
    while z and z[-1] == (0, 0):
        z.pop()
    if not z:
        return P_ZERO
    g = d
    for x, y in z:
        g = math.gcd(g, x, y)
        if g == 1:
            return Poly(tuple(z), d)
    return Poly(tuple((x // g, y // g) for x, y in z), d // g)


def _homogeneous(z, point: tuple[int, int], den: int) -> tuple[int, int]:
    """sum z[k] p^k den^(n-k) over Z[i] by Horner, for the point p/den."""
    pr, pi = point
    re, im = z[-1]
    power = 1
    for x, y in reversed(z[:-1]):
        power *= den
        re, im = re * pr - im * pi + x * power, re * pi + im * pr + y * power
    return re, im


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm (Q(i) is a field), each
    remainder made monic to keep its integers small.

    A nonzero constant on either side gives 1 without a division, the
    common case in rational-function arithmetic; gcd(0, b) is b made monic."""
    if a.degree == 0 or b.degree == 0:
        return P_ONE
    while not b.is_zero():
        a, b = b, (a % b).monic()
    return a.monic()


def square_free_part(f: Poly) -> Poly:
    """Product of the distinct irreducible factors of f, monic."""
    if f.degree <= 0:
        return P_ONE
    g = poly_gcd(f, f.derivative())
    return (f // g).monic()


def root_multiplicity(f: Poly, r: GaussianRational) -> int:
    count = 0
    lin = Poly.of([-r, 1])
    (point,), den = _integer_pairs([r])
    while not f.is_zero() and _homogeneous(f.z, point, den) == (0, 0):
        f = f // lin
        count += 1
    return count


def multiplicity(f: Poly, p: Poly) -> int:
    """The exponent of the nonconstant p in the nonzero f: the largest k
    with p^k dividing f."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no multiplicity")
    k = 0
    while True:
        q, r = divmod(f, p)
        if not r.is_zero():
            return k
        f, k = q, k + 1


def gcd_free_base(polys: Iterable[Poly]) -> tuple[Poly, ...]:
    """Monic, square-free, pairwise coprime polynomials such that each
    nonconstant f in polys is its leading coefficient times a product of
    their powers: a gcd-free base (Bach, Driscoll and Shallit, "Factor
    refinement", J. Algorithms 1993).  All roots of one element have the
    same multiplicity in each f, so they share every valuation.

    Each f is split into square-free pieces by Yun's algorithm (SYMSAC
    1976): with a = gcd(f, f'), b = f/a and c = f'/a, the piece gcd(b, c - b')
    holds the roots of multiplicity one, and dividing it out of b and c - b'
    leaves the same shape for the next multiplicity.  Each piece then
    refines the base: an element it shares a factor g with is replaced by
    its cofactor and g, g leaves the piece, and what is left of the piece
    joins the base.  The order is fixed by the order of polys.
    """
    base: list[Poly] = []
    for f in polys:
        if f.degree < 1:
            continue
        df = f.derivative()
        a = poly_gcd(f, df)
        b, c = f // a, df // a
        while b.degree >= 1:
            d = c + -b.derivative()
            piece = poly_gcd(b, d)
            b, c = b // piece, d // piece
            refined = []
            for e in base:
                g = poly_gcd(e, piece)
                if g.degree >= 1:
                    refined += [x for x in (e // g, g) if x.degree >= 1]
                    piece = piece // g
                else:
                    refined.append(e)
            base = refined + [piece] if piece.degree >= 1 else refined
    return tuple(base)


# -- roots in closed form ---------------------------------------------------


def _quadratic_roots(f: Poly) -> list[GaussianRational]:
    c0, c1, c2 = f.coeffs
    disc = c1 * c1 - GaussianRational.of(4) * c2 * c0
    s = disc.sqrt()
    if s is None:
        return []
    two_a = GaussianRational.of(2) * c2
    roots = [(-c1 + s) / two_a, (-c1 - s) / two_a]
    return sorted(set(roots))


@dataclass(frozen=True)
class RootReport:
    """The roots in Q(i) that closed forms give, with multiplicities, plus
    the residue they leave whole."""

    roots: tuple[tuple[GaussianRational, int], ...]
    # monic square-free part of degree >= 3, whose roots may lie in Q(i),
    # or a quadratic irreducible over Q(i); 1 when every root is found
    unresolved: Poly


def gaussian_rational_roots(f: Poly) -> RootReport:
    """The roots of f in Q(i) that closed forms give, with multiplicity.

    f passes to its square-free part.  At degree one its root is -c0/c1,
    at degree two the quadratic formula gives both roots when the
    discriminant is a square in Q(i), and each root is recorded with its
    multiplicity in f.  Any other square-free part, of degree 3 or more or
    an irreducible quadratic, is returned whole as unresolved:
    `motion.candidate_places` cuts such residues with a gcd-free base and
    splits its elements by these same closed forms.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    work = square_free_part(f)
    if work.degree == 1:
        found = [-work.coeffs[0] / work.coeffs[1]]
    elif work.degree == 2:
        found = _quadratic_roots(work)
    else:
        found = []
    unresolved = P_ONE if found or work.degree < 1 else work
    return RootReport(tuple((r, root_multiplicity(f, r)) for r in found), unresolved)
