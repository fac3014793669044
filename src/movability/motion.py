"""Exact parametrized motions of labeled graphs.

A motion assigns each vertex a pair of real rational functions of one
parameter, with one edge pinned to the x-axis.  The complex edge functions
W = dx + i*dy and Z = dx - i*dy multiply to the squared edge length.  Each
edge's W is built once, when the motion is constructed, and the labeling is
read off it as the constant W*Z; every query below reads that table.  The
valuations of W at Gaussian-rational places induce NAC-colorings: choosing
a threshold between attained valuation levels and coloring an edge red when
its valuation exceeds the threshold always yields a NAC-coloring, and the
colorings collected this way over all places are the active ones.

A motion is proper when no two vertices share both coordinate functions, so
one driven by linearly independent frame functions is proper exactly when
its vertices' frame coefficients differ.  Collinear triples are legal in a
proper motion and are computed only for display.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from .exact import (
    GR_I,
    GaussianRational,
    Poly,
    fraction_sqrt,
    gaussian_rational_roots,
)
from .graphs import Edge, Graph, edge, graph_of_json
from .nac import NacColoring, is_nac
from .ratfunc import INFINITY, Place, RationalFunction, valuation

Labeling = dict[Edge, Fraction]

_I = RationalFunction.const(GR_I)


class MotionError(ValueError):
    """A coordinate assignment that is not a motion of any labeling."""


def _require_real(f: RationalFunction, what: str):
    for poly in (f.num, f.den):
        for c in poly.coeffs:
            if c.im != 0:
                raise MotionError(f"{what} has a non-real coefficient {c}")


def _require_constant(f: RationalFunction, what: str) -> GaussianRational:
    if not f.is_constant():
        raise MotionError(f"{what} is not constant: {f}")
    return f.constant_value()


@dataclass(frozen=True)
class ParametrizedMotion:
    """Per-vertex coordinate functions with a pinned edge.

    Invariants checked at construction: coordinates are real rational
    functions, the fixed edge (u, v) satisfies x_u = y_u = y_v = 0 with
    x_v a positive rational constant, and every edge's W*Z is a nonzero
    rational constant (the induced labeling).  Each edge's W is kept for
    the queries.
    """

    graph: Graph
    fixed_edge: tuple[int, int]
    coords: tuple[tuple[RationalFunction, RationalFunction], ...]

    def __post_init__(self):
        g = self.graph
        if len(self.coords) != g.n:
            raise MotionError("coordinate count does not match vertex count")
        ub, vb = self.fixed_edge
        if edge(ub, vb) not in g.edges:
            raise MotionError(f"fixed pair ({ub},{vb}) is not an edge")
        for v in range(g.n):
            _require_real(self.coords[v][0], f"x_{v}")
            _require_real(self.coords[v][1], f"y_{v}")
        if not (self.coords[ub][0].is_zero() and self.coords[ub][1].is_zero()):
            raise MotionError(f"vertex {ub} of the fixed edge is not at the origin")
        if not self.coords[vb][1].is_zero():
            raise MotionError(f"vertex {vb} of the fixed edge is not on the x-axis")
        xv = _require_constant(self.coords[vb][0], f"x_{vb}")
        if xv.re <= 0:
            raise MotionError(f"fixed edge length must be positive, got {xv}")
        w_table: dict[Edge, RationalFunction] = {}
        labeling: Labeling = {}
        for u, v in g.sorted_edges():
            w = (self.x(v) - self.x(u)) + _I * (self.y(v) - self.y(u))
            # W*Z is real because the coordinates are
            val = _require_constant(
                w * w.conjugate_coeffs(), f"squared distance of edge ({u},{v})"
            )
            if val.re <= 0:
                raise MotionError(
                    f"edge ({u},{v}) has squared length {val}, expected positive rational"
                )
            w_table[(u, v)] = w
            labeling[(u, v)] = val.re
        object.__setattr__(self, "_w", w_table)
        object.__setattr__(self, "_labeling", labeling)

    # -- basic derived functions ------------------------------------------

    def x(self, v: int) -> RationalFunction:
        return self.coords[v][0]

    def y(self, v: int) -> RationalFunction:
        return self.coords[v][1]

    def squared_distance(self, u: int, v: int) -> RationalFunction:
        dx = self.x(v) - self.x(u)
        dy = self.y(v) - self.y(u)
        return dx * dx + dy * dy

    def is_trivial(self) -> bool:
        """Frozen motion: every coordinate function is constant."""
        return all(
            f.is_constant() for pair in self.coords for f in pair
        )

    def induced_labeling(self) -> Labeling:
        """Squared length of each edge (constant by the type invariant)."""
        return dict(self._labeling)

    def realize_float(self, t: float) -> list[tuple[float, float]]:
        return [
            (pair[0].eval_float(t).real, pair[1].eval_float(t).real)
            for pair in self.coords
        ]


def w_function(m: ParametrizedMotion, u: int, v: int) -> RationalFunction:
    """W_{u,v} = (x_v - x_u) + i (y_v - y_u) of an edge; antisymmetric in (u, v)."""
    w = m._w.get(edge(u, v))
    if w is None:
        raise ValueError(f"({u},{v}) is not an edge")
    return w if u < v else -w


def z_function(m: ParametrizedMotion, u: int, v: int) -> RationalFunction:
    """Z_{u,v} = (x_v - x_u) - i (y_v - y_u), W_{u,v} with conjugated coefficients."""
    return w_function(m, u, v).conjugate_coeffs()


@dataclass(frozen=True)
class InjectivityReport:
    proper: bool
    coinciding_pairs: tuple[tuple[int, int], ...]


def _same_function(f: RationalFunction, g: RationalFunction) -> bool:
    # cross-multiplied polynomial identity; avoids any gcd computation
    return f.num * g.den == g.num * f.den


def verify_injectivity(m: ParametrizedMotion) -> InjectivityReport:
    """PROPER when no vertex pair coincides identically.

    Coordinates are real rational functions, so two vertices coincide for
    every parameter exactly when both coordinate functions agree as rational
    functions; all other coincidences happen at finitely many parameters
    only.
    """
    coinciding = tuple(
        (u, v) for u, v in combinations(range(m.graph.n), 2)
        if _same_function(m.x(u), m.x(v)) and _same_function(m.y(u), m.y(v))
    )
    return InjectivityReport(proper=not coinciding, coinciding_pairs=coinciding)


def collinear_triples(m: ParametrizedMotion) -> tuple[tuple[int, int, int], ...]:
    """Vertex triples collinear for every parameter, bar those holding a
    coinciding pair.

    Each cross product is evaluated at more integer points than its
    numerator degree admits as roots.
    """
    # enough sample points to pin the cross product down exactly
    max_deg = max(f.num.degree + f.den.degree for pair in m.coords for f in pair)
    needed = 4 * max_deg + 5
    values: list[list[tuple[GaussianRational, GaussianRational]]] = []
    t = 0
    while len(values) < needed:
        t0 = GaussianRational.of(t)
        t += 1
        try:
            row = [(pair[0](t0), pair[1](t0)) for pair in m.coords]
        except ZeroDivisionError:
            continue
        values.append(row)
    collinear = []
    skip = set(verify_injectivity(m).coinciding_pairs)
    for a, b, c in combinations(range(m.graph.n), 3):
        if {(a, b), (a, c), (b, c)} & skip:
            continue
        rows = ((row[a], row[b], row[c]) for row in values)
        if all(((xb - xa) * (yc - ya) - (yb - ya) * (xc - xa)).is_zero()
               for (xa, ya), (xb, yb), (xc, yc) in rows):
            collinear.append((a, b, c))
    return tuple(collinear)


def refix_edge(m: ParametrizedMotion, u2: int, v2: int) -> ParametrizedMotion:
    """Move the pin to the edge (u2, v2) by the rotation/translation map.

    The image of a point (x, y) is
      ( ((x-x_u')(x_v'-x_u') + (y-y_u')(y_v'-y_u')) / L,
        ((y-y_u')(x_v'-x_u') - (x-x_u')(y_v'-y_u')) / L )
    with L the length of the new fixed edge, which must be rational for the
    result to stay exact.
    """
    if edge(u2, v2) not in m.graph.edges:
        raise MotionError(f"({u2},{v2}) is not an edge")
    lam_sq = m.induced_labeling()[edge(u2, v2)]
    lam = fraction_sqrt(lam_sq)
    if lam is None:
        raise MotionError(
            f"edge ({u2},{v2}) has irrational length sqrt({lam_sq}); exact refix impossible"
        )
    ax = m.x(v2) - m.x(u2)
    ay = m.y(v2) - m.y(u2)
    inv = RationalFunction.const(GaussianRational.of(Fraction(1) / lam))
    new_coords = []
    for v in range(m.graph.n):
        px = m.x(v) - m.x(u2)
        py = m.y(v) - m.y(u2)
        new_coords.append(
            ((px * ax + py * ay) * inv, (py * ax - px * ay) * inv)
        )
    return ParametrizedMotion(m.graph, (u2, v2), tuple(new_coords))


# -- places and active NAC-colorings ----------------------------------------


@dataclass(frozen=True)
class PlacesReport:
    """Candidate places plus any factor the root search could not split."""

    places: tuple[Place, ...]
    unresolved: tuple[Poly, ...]

    @property
    def complete(self) -> bool:
        return not self.unresolved


def candidate_places(m: ParametrizedMotion) -> PlacesReport:
    """All Gaussian-rational roots of all W numerators/denominators, plus oo.

    Nontrivial valuations of edge functions can only occur at these places.
    Irreducible factors of degree two or more over Q(i) are reported
    unresolved rather than silently dropped; when any are present the active
    set computed from the resolved places is only a lower bound.
    """
    seen: set[tuple[Fraction, Fraction]] = set()
    places: list[Place] = []
    unresolved: list[Poly] = []
    for u, v in m.graph.sorted_edges():
        w = w_function(m, u, v)
        for poly in (w.num, w.den):
            if poly.degree < 1:
                continue
            report = gaussian_rational_roots(poly)
            for root, _mult in report.roots:
                key = (root.re, root.im)
                if key not in seen:
                    seen.add(key)
                    places.append(Place(root))
            if report.unresolved.degree >= 1 and report.unresolved not in unresolved:
                unresolved.append(report.unresolved)
    places.sort(key=lambda p: (p.point.re, p.point.im))
    places.append(INFINITY)
    return PlacesReport(tuple(places), tuple(unresolved))


@dataclass(frozen=True)
class ValuationTable:
    """Integer valuations of every edge function at one place."""

    place: Place
    values: tuple[tuple[Edge, int], ...]

    def as_dict(self) -> dict[Edge, int]:
        return dict(self.values)


def valuation_table(m: ParametrizedMotion, place: Place) -> ValuationTable:
    rows = []
    for u, v in m.graph.sorted_edges():
        rows.append(((u, v), valuation(w_function(m, u, v), place)))
    return ValuationTable(place, tuple(rows))


def all_valuation_tables(m: ParametrizedMotion) -> list[ValuationTable]:
    report = candidate_places(m)
    return [valuation_table(m, p) for p in report.places]


@dataclass(frozen=True)
class ActiveNacReport:
    colorings: frozenset[NacColoring]
    complete: bool  # False when unresolved factors may hide further places


def active_nac_colorings(m: ParametrizedMotion) -> ActiveNacReport:
    """Colorings induced by thresholding valuations at every resolved place.

    At each place the thresholds tried are exactly the attained valuation
    levels that have a strictly larger level present (red = strictly above
    the threshold); sweeping anything between attained levels cannot change
    the induced partition.  Every produced coloring is asserted to be a
    NAC-coloring and the set is deduplicated.
    """
    report = candidate_places(m)
    found: set[NacColoring] = set()
    for place in report.places:
        vals = valuation_table(m, place).as_dict()
        # the top level has nothing above it, so it is no threshold
        for alpha in sorted(set(vals.values()))[:-1]:
            red = frozenset(e for e, v in vals.items() if v > alpha)
            coloring = NacColoring(m.graph, red)
            if not is_nac(m.graph, coloring):
                raise MotionError(
                    f"threshold {alpha} at place {place} produced a non-NAC coloring; "
                    "the motion data is inconsistent"
                )
            found.add(coloring)
    return ActiveNacReport(frozenset(found), complete=report.complete)


# -- JSON interchange --------------------------------------------------------


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _poly_json(p: Poly) -> list[list[str]]:
    if p.is_zero():
        return [["0/1", "0/1"]]
    return [[_fraction_str(c.re), _fraction_str(c.im)] for c in p.coeffs]


def _poly_from_json(data) -> Poly:
    return Poly.of([GaussianRational.of(Fraction(re), Fraction(im)) for re, im in data])


def _rf_json(f: RationalFunction) -> dict:
    return {"num": _poly_json(f.num), "den": _poly_json(f.den)}


def _rf_from_json(data) -> RationalFunction:
    return RationalFunction.of(_poly_from_json(data["num"]), _poly_from_json(data["den"]))


def motion_to_json(m: ParametrizedMotion) -> str:
    return json.dumps(
        {
            "n": m.graph.n,
            "edges": [list(e) for e in m.graph.sorted_edges()],
            "fixed_edge": list(m.fixed_edge),
            "vertices": {
                str(v): {"x": _rf_json(m.x(v)), "y": _rf_json(m.y(v))}
                for v in range(m.graph.n)
            },
        },
        indent=2,
    )


def motion_from_json(text: str) -> ParametrizedMotion:
    data = json.loads(text)
    g = graph_of_json(data["n"], data["edges"])
    coords = []
    for v in range(g.n):
        entry = data["vertices"][str(v)]
        coords.append((_rf_from_json(entry["x"]), _rf_from_json(entry["y"])))
    return ParametrizedMotion(g, tuple(data["fixed_edge"]), tuple(coords))


def labeling_to_json(labeling: Labeling) -> str:
    edges = sorted(labeling)
    return json.dumps(
        {
            "edges": [list(e) for e in edges],
            "lambda_sq": [_fraction_str(labeling[e]) for e in edges],
        }
    )


def labeling_from_json(text: str) -> Labeling:
    data = json.loads(text)
    edges, values = data["edges"], data["lambda_sq"]
    if len(edges) != len(values):
        raise ValueError(f"{len(edges)} edges but {len(values)} squared lengths")
    out: Labeling = {}
    for (u, v), s in zip(edges, values):
        if not (type(u) is int and type(v) is int and min(u, v) >= 0):
            raise ValueError(f"edge ({u},{v}) needs two nonnegative integer vertices")
        if not (type(s) is str or type(s) is int):
            raise ValueError(f"edge ({u},{v}) needs its squared length as a string or an integer")
        val = Fraction(s)
        if val <= 0:
            raise ValueError(f"edge ({u},{v}) has non-positive squared length")
        if edge(u, v) in out:
            raise ValueError(f"edge ({u},{v}) is listed twice")
        out[edge(u, v)] = val
    return out
