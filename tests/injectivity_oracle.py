"""Reference injectivity report: the cross-multiplied, sampled check.

Coinciding pairs are found by cross-multiplying x and y of every vertex
pair, and collinear triples by evaluating each cross product at more
integer points than its numerator degree admits as roots, both in one pass.
`motion.verify_injectivity` and `motion.collinear_triples` answer the same
questions by equality of canonical rational functions;
`tests/test_injectivity.py` asserts that they agree with this reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from movability.exact import GaussianRational
from movability.motion import ParametrizedMotion
from movability.ratfunc import RationalFunction


@dataclass(frozen=True)
class InjectivityReport:
    proper: bool
    coinciding_pairs: tuple[tuple[int, int], ...]
    collinear_triples: tuple[tuple[int, int, int], ...]


def _same_function(f: RationalFunction, g: RationalFunction) -> bool:
    return f.num * g.den == g.num * f.den


def verify_injectivity(m: ParametrizedMotion) -> InjectivityReport:
    n = m.graph.n
    coords = [(m.x(v), m.y(v)) for v in range(n)]
    coinciding = []
    for u, v in combinations(range(n), 2):
        if _same_function(m.x(u), m.x(v)) and _same_function(m.y(u), m.y(v)):
            coinciding.append((u, v))
    # enough sample points to pin the cross product down exactly
    max_deg = max(
        f.num.degree + f.den.degree for pair in coords for f in pair
    )
    needed = 4 * max_deg + 5
    points: list[GaussianRational] = []
    values: list[list[tuple[GaussianRational, GaussianRational]]] = []
    t = 0
    while len(points) < needed:
        t0 = GaussianRational.of(t)
        t += 1
        try:
            row = [(pair[0](t0), pair[1](t0)) for pair in coords]
        except ZeroDivisionError:
            continue
        points.append(t0)
        values.append(row)
    collinear = []
    skip = set(coinciding)
    for a, b, c in combinations(range(n), 3):
        if {(a, b), (a, c), (b, c)} & skip:
            continue
        flat = True
        for row in values:
            (xa, ya), (xb, yb), (xc, yc) = row[a], row[b], row[c]
            cross = (xb - xa) * (yc - ya) - (yb - ya) * (xc - xa)
            if not cross.is_zero():
                flat = False
                break
        if flat:
            collinear.append((a, b, c))
    return InjectivityReport(
        proper=not coinciding,
        coinciding_pairs=tuple(coinciding),
        collinear_triples=tuple(collinear),
    )
