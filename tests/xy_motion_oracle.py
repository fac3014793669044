"""Reference motions with two real coordinate functions per vertex.

This is the representation `motion.ParametrizedMotion` had before it stored
one complex function z = x + i*y per vertex: the constructor checks that
every coordinate is real, builds each edge's W = dx + i*dy and reads the
labeling off W*Z; `refix_edge` rotates and translates x and y separately;
the deltoid and S5 are their closed forms in cosine and sine.  Canonical
forms of rational functions are unique, so `tests/test_xy_oracle.py` asserts
that the derived x and y, the W table, the labeling and every refix are
equal to these.
"""

from __future__ import annotations

from fractions import Fraction

from movability.constructions import _const
from movability.exact import GR_I, Poly, fraction_sqrt
from movability.graphs import Edge, Graph, edge
from movability.motion import MotionError, _require_constant, _require_real
from movability.ratfunc import RationalFunction

_I = RationalFunction.const(GR_I)


class XYMotion:
    """Per-vertex (x, y) coordinate functions with a pinned edge."""

    def __init__(self, graph: Graph, fixed_edge: tuple[int, int], coords):
        self.graph, self.fixed_edge, self.coords = graph, fixed_edge, tuple(coords)
        if len(self.coords) != graph.n:
            raise MotionError("coordinate count does not match vertex count")
        ub, vb = fixed_edge
        if edge(ub, vb) not in graph.edges:
            raise MotionError(f"fixed pair ({ub},{vb}) is not an edge")
        for v in range(graph.n):
            _require_real(self.x(v), f"x_{v}")
            _require_real(self.y(v), f"y_{v}")
        if not (self.x(ub).is_zero() and self.y(ub).is_zero()):
            raise MotionError(f"vertex {ub} of the fixed edge is not at the origin")
        if not self.y(vb).is_zero():
            raise MotionError(f"vertex {vb} of the fixed edge is not on the x-axis")
        if _require_constant(self.x(vb), f"x_{vb}").re <= 0:
            raise MotionError("fixed edge length must be positive")
        self.w: dict[Edge, RationalFunction] = {}
        self.labeling: dict[Edge, Fraction] = {}
        for u, v in graph.sorted_edges():
            w = (self.x(v) - self.x(u)) + _I * (self.y(v) - self.y(u))
            val = _require_constant(w * w.conjugate_coeffs(), f"squared distance of edge ({u},{v})")
            if val.re <= 0:
                raise MotionError(f"edge ({u},{v}) has squared length {val}")
            self.w[(u, v)] = w
            self.labeling[(u, v)] = val.re

    def x(self, v: int) -> RationalFunction:
        return self.coords[v][0]

    def y(self, v: int) -> RationalFunction:
        return self.coords[v][1]


def refix_edge(m: XYMotion, u2: int, v2: int) -> XYMotion:
    """The image of (x, y) is
      ( ((x-x_u')(x_v'-x_u') + (y-y_u')(y_v'-y_u')) / L,
        ((y-y_u')(x_v'-x_u') - (x-x_u')(y_v'-y_u')) / L )
    with L the rational length of the new fixed edge."""
    lam_sq = m.labeling[edge(u2, v2)]
    lam = fraction_sqrt(lam_sq)
    if lam is None:
        raise MotionError(f"edge ({u2},{v2}) has irrational length sqrt({lam_sq})")
    ax = m.x(v2) - m.x(u2)
    ay = m.y(v2) - m.y(u2)
    inv = _const(Fraction(1) / lam)
    new_coords = []
    for v in range(m.graph.n):
        px = m.x(v) - m.x(u2)
        py = m.y(v) - m.y(u2)
        new_coords.append(((px * ax + py * ay) * inv, (py * ax - px * ay) * inv))
    return XYMotion(m.graph, (u2, v2), new_coords)


def circle_functions() -> tuple[RationalFunction, RationalFunction]:
    """(cos, sin) as rational functions of the half-angle parameter."""
    c = RationalFunction.of(Poly.of([1, 0, -1]), Poly.of([1, 0, 1]))
    s = RationalFunction.of(Poly.of([0, 2]), Poly.of([1, 0, 1]))
    return c, s


def deltoid_coords(a: Fraction):
    """(x, y) of the deltoid's four vertices at scale a."""
    zero = _const(0)
    x2 = RationalFunction.of(Poly.of([-8 * a, 0, 4 * a]), Poly.of([4, 0, 1]))
    y2 = RationalFunction.of(Poly.of([0, 12 * a]), Poly.of([4, 0, 1]))
    x3 = RationalFunction.of(Poly.of([4 * a, 0, -13 * a, 0, a]), Poly.of([4, 0, 5, 0, 1]))
    y3 = RationalFunction.of(Poly.of([0, -12 * a, 0, 6 * a]), Poly.of([4, 0, 5, 0, 1]))
    return ((zero, zero), (_const(a), zero), (x2, y2), (x3, y3))


def s5_coords(a: Fraction):
    """(x, y) of S5's eight vertices at shape parameter a > 1."""
    c, s = circle_functions()
    zero = _const(0)
    a2 = a * a
    k4 = _const((1 - a2) / (a2 + 1))
    den5 = _const(a2 + 1) + _const(2 * a) * c
    den6 = _const(a2 + 1) - _const(2 * a) * c
    den7 = _const((a2 - 1) ** 2) + _const(4 * a2) * s * s
    return (
        (zero, zero),
        (_const(-a), zero),
        (_const(a), zero),
        (c, s),
        (k4 * c, k4 * s),
        (-(_const(a2 * a - a) + _const(a2 - 1) * c) / den5, _const(1 - a2) * s / den5),
        ((_const(a2 * a - a) - _const(a2 - 1) * c) / den6, _const(1 - a2) * s / den6),
        (
            (_const((a2 - 1) ** 2) - _const(4 * a2) * s * s) * c / den7,
            -(_const(3 * a2 * a2 + 2 * a2 - 1) - _const(4 * a2) * c * c) * s / den7,
        ),
    )
