"""Exact parametrized motions of labeled graphs.

A motion assigns each vertex one complex rational function z = x + i*y of
one real parameter, with one edge pinned to the positive x-axis.  The edge
function W = z_v - z_u and Z, its conjugate, multiply to the squared edge
length.  The constructor proves the labeling over one denominator: with D
the monic lcm of the coordinate denominators and z_v = N_v/D, an edge's
W*Z is the constant c exactly when dN*conj(dN) = c*D*conj(D) for
dN = N_v - N_u, an exact polynomial identity checked with no gcd.  The
table of each edge's W is built when a query below first reads it.  A
refix moves the pin by a rotation and a translation and passes the new
coordinates through the same constructor, so it is proved like any motion.
The real coordinates x = (z + conj z)/2 and y = (z - conj z)/2i are derived
only for JSON and floats.  The valuations of W at the places of the curve
induce NAC-colorings: choosing a threshold between attained valuation
levels and coloring an edge red when its valuation exceeds the threshold
always yields a NAC-coloring, and the colorings collected this way over all
places are the active ones.

A motion is proper when no two vertices share their coordinate function, so
one driven by linearly independent frame functions is proper exactly when
its vertices' frame coefficients differ.  Collinear triples are legal in a
proper motion and are computed only for display.

Both identity questions are answered by equality of canonical forms.
Every coordinate is a `RationalFunction` with coprime numerator and
denominator and a monic denominator: `RationalFunction.of` and `_canonical`
reduce every result, negation and conjugation keep the form, and motion
JSON is read through `RationalFunction.of`.  Two functions in that form
agree for every parameter exactly when they are equal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, zip_longest
from typing import NoReturn
from .exact import (
    GR_I,
    GaussianRational,
    Poly,
    _as_fraction,
    _fraction_str,
    fraction_sqrt,
    gaussian_rational_roots,
    gcd_free_base,
)
from .graphs import Edge, Graph, edge, graph_of_json, json_edges
from .nac import NacColoring, is_nac
from .ratfunc import INFINITY, Place, RationalFunction, over_one_denominator, valuation

Labeling = dict[Edge, Fraction]

_I = RationalFunction.const(GR_I)
_HALF = RationalFunction.const(GaussianRational.of(Fraction(1, 2)))
_HALF_OVER_I = RationalFunction.const(GaussianRational.of(0, Fraction(-1, 2)))


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


def _edge_labeling(g: Graph, coords: tuple[RationalFunction, ...]) -> Labeling:
    """Each edge's W*Z, proved a positive rational constant over one
    denominator.

    With D the monic lcm of the coordinate denominators, z_v = N_v/D, and an
    edge's W is dN/D with dN = N_v - N_u.  W*Z is a constant c exactly when
    dN*conj(dN) = c*D*conj(D).  D is monic, so comparing degrees and leading
    coefficients forces deg dN = deg D and c = |lc dN|^2, and c > 0 since dN
    is then nonzero.  The identity is checked on integers: the N_v are
    Gaussian-integer pairs over one int e, and with dN = R/e and D = P/d it
    reads R*conj(R)*d^2 = |lc R|^2 * P*conj(P), with no gcd and no tolerance.
    """
    den, rows, e = over_one_denominator(coords)
    size, target, d2 = len(den.z), _norm_coeffs(den.z), den.d * den.d
    labeling: Labeling = {}
    for u, v in g.sorted_edges():
        dn = [(x - p, y - q) for (x, y), (p, q) in zip_longest(rows[v], rows[u], fillvalue=(0, 0))]
        while dn and dn[-1] == (0, 0):
            dn.pop()
        if len(dn) == size:
            x, y = dn[-1]
            lead = x * x + y * y
            if all(q * d2 == lead * p for q, p in zip(_norm_coeffs(dn), target)):
                labeling[(u, v)] = Fraction(lead, e * e)
                continue
        _raise_edge_error(coords, u, v)
    return labeling


def _norm_coeffs(z) -> list[int]:
    """The coefficients of p*conj(p) for p = sum z[k] t^k over Z[i], conj
    acting on the coefficients.  They are real, since the terms z[i]*conj(z[j])
    and z[j]*conj(z[i]) are conjugate, so only real parts are summed."""
    out = [0] * (2 * len(z) - 1)
    for i, (x, y) in enumerate(z):
        for j, (p, q) in enumerate(z):
            out[i + j] += x * p + y * q
    return out


def _raise_edge_error(coords: tuple[RationalFunction, ...], u: int, v: int) -> NoReturn:
    """The error for an edge whose W*Z is not a positive constant, from W*Z
    itself: it is not constant, or it is 0 when the endpoints coincide."""
    w = coords[v] - coords[u]
    val = _require_constant(w * w.conjugate_coeffs(), f"squared distance of edge ({u},{v})")
    raise MotionError(f"edge ({u},{v}) has squared length {val}, expected positive rational")


@dataclass(frozen=True)
class ParametrizedMotion:
    """One complex coordinate function z = x + i*y per vertex, with a pinned edge.

    Invariants checked at construction: the fixed edge (u, v) has z_u = 0
    and z_v a positive rational constant, and every edge's W*Z is a nonzero
    rational constant (the induced labeling), proved by one identity per
    edge over the coordinates' common denominator (`_edge_labeling`).  The
    table of each edge's W is built when a query first reads it.  This is
    the one way to build a motion: a refix is checked like any other.
    """

    graph: Graph
    fixed_edge: tuple[int, int]
    coords: tuple[RationalFunction, ...]

    def __post_init__(self):
        g = self.graph
        if len(self.coords) != g.n:
            raise MotionError("coordinate count does not match vertex count")
        ub, vb = self.fixed_edge
        if edge(ub, vb) not in g.edges:
            raise MotionError(f"fixed pair ({ub},{vb}) is not an edge")
        if not self.coords[ub].is_zero():
            raise MotionError(f"vertex {ub} of the fixed edge is not at the origin")
        zv = _require_constant(self.coords[vb], f"z_{vb}")
        if zv.im != 0:
            raise MotionError(f"vertex {vb} of the fixed edge is not on the x-axis")
        if zv.re <= 0:
            raise MotionError(f"fixed edge length must be positive, got {zv}")
        object.__setattr__(self, "_labeling", _edge_labeling(g, self.coords))

    @cached_property
    def _w(self) -> dict[Edge, RationalFunction]:
        """Each edge's W = z_v - z_u, built when a query first reads it."""
        coords = self.coords
        return {(u, v): coords[v] - coords[u] for u, v in self.graph.sorted_edges()}

    # -- derived real coordinates ------------------------------------------

    @cached_property
    def _xy(self) -> tuple[tuple[RationalFunction, RationalFunction], ...]:
        return tuple(
            ((z + z.conjugate_coeffs()) * _HALF, (z - z.conjugate_coeffs()) * _HALF_OVER_I)
            for z in self.coords
        )

    def x(self, v: int) -> RationalFunction:
        return self._xy[v][0]

    def y(self, v: int) -> RationalFunction:
        return self._xy[v][1]

    def is_trivial(self) -> bool:
        """Frozen motion: every coordinate function is constant."""
        return all(z.is_constant() for z in self.coords)

    def induced_labeling(self) -> Labeling:
        """Squared length of each edge (constant by the type invariant)."""
        return dict(self._labeling)

    def realize_float(self, t: float) -> list[tuple[float, float]]:
        return [(x.eval_float(t).real, y.eval_float(t).real) for x, y in self._xy]


def w_function(m: ParametrizedMotion, u: int, v: int) -> RationalFunction:
    """W_{u,v} = z_v - z_u of an edge; antisymmetric in (u, v)."""
    w = m._w.get(edge(u, v))
    if w is None:
        raise ValueError(f"({u},{v}) is not an edge")
    return w if u < v else -w


def z_function(m: ParametrizedMotion, u: int, v: int) -> RationalFunction:
    """Z_{u,v}, W_{u,v} with conjugated coefficients."""
    return w_function(m, u, v).conjugate_coeffs()


@dataclass(frozen=True)
class InjectivityReport:
    proper: bool
    coinciding_pairs: tuple[tuple[int, int], ...]


def verify_injectivity(m: ParametrizedMotion) -> InjectivityReport:
    """PROPER when no vertex pair coincides identically.

    Two vertices coincide for every parameter exactly when their coordinate
    functions are equal, since both are in canonical form; all other
    coincidences happen at finitely many parameters only.  The pairs are
    those inside each group of equal coordinates, in lexicographic order.
    """
    groups: dict[RationalFunction, list[int]] = {}
    for v, z in enumerate(m.coords):
        groups.setdefault(z, []).append(v)
    coinciding = tuple(sorted(pair for vs in groups.values() for pair in combinations(vs, 2)))
    return InjectivityReport(proper=not coinciding, coinciding_pairs=coinciding)


def collinear_triples(m: ParametrizedMotion) -> tuple[tuple[int, int, int], ...]:
    """Vertex triples collinear for every parameter, bar those holding a
    coinciding pair.

    With p = z_b - z_a and q = z_c - z_a, the triple is collinear at a real
    t exactly when r = conj(p)*q is real there.  At real t, conj(r(t)) is
    r with conjugated coefficients, so r - conj(r) is a rational function,
    and one that vanishes at infinitely many reals is zero.  Both sides are
    canonical, so the test is equality of r and its conjugate.
    """
    n = m.graph.n
    diff = {(a, b): m.coords[b] - m.coords[a] for a, b in combinations(range(n), 2)}
    collinear = []
    for a, b, c in combinations(range(n), 3):
        p, q = diff[a, b], diff[a, c]
        if p.is_zero() or q.is_zero() or diff[b, c].is_zero():
            continue
        r = p.conjugate_coeffs() * q
        if r == r.conjugate_coeffs():
            collinear.append((a, b, c))
    return tuple(collinear)


def refix_edge(m: ParametrizedMotion, u2: int, v2: int) -> ParametrizedMotion:
    """Move the pin to the edge (u2, v2) by a rotation and a translation.

    The image of z is (z - z_u') * R with R = Z_{u',v'} / L and L the length
    of the new fixed edge, which must be rational for the result to stay
    exact.  The constructor checks the result like any motion.
    """
    if edge(u2, v2) not in m.graph.edges:
        raise MotionError(f"({u2},{v2}) is not an edge")
    lam_sq = m.induced_labeling()[edge(u2, v2)]
    lam = fraction_sqrt(lam_sq)
    if lam is None:
        raise MotionError(
            f"edge ({u2},{v2}) has irrational length sqrt({lam_sq}); exact refix impossible"
        )
    rotation = z_function(m, u2, v2) * RationalFunction.const(GaussianRational.of(1 / lam))
    z0 = m.coords[u2]
    return ParametrizedMotion(m.graph, (u2, v2), tuple((z - z0) * rotation for z in m.coords))


# -- places and active NAC-colorings ----------------------------------------


@dataclass(frozen=True)
class PlacesReport:
    """The places where an edge function can have a nonzero valuation."""

    places: tuple[Place, ...]


def candidate_places(m: ParametrizedMotion) -> PlacesReport:
    """The places of all W numerators and denominators: points of Q(i)
    from closed forms, then the gcd-free base, then oo.

    Nontrivial valuations of edge functions can only occur at these places.
    Each polynomial is split by the closed forms of `gaussian_rational_roots`.
    One they leave a residue in is divided by every point found, each to
    its multiplicity, by a Horner test and exact division, and the
    quotients are cut into a gcd-free base.  The same closed forms split
    each element of degree one, and of degree two when its roots lie in
    Q(i); every other element is one place, named by its polynomial: all
    its roots share every valuation, so none is missed.  Such an element
    of degree 3 or more may have roots in Q(i).
    """
    # motions repeat polynomials across edges, so each is split once
    polys = dict.fromkeys(p for w in m._w.values() for p in (w.num, w.den) if p.degree >= 1)
    reports = {poly: gaussian_rational_roots(poly) for poly in polys}
    points = {root for report in reports.values() for root, _mult in report.roots}
    rests: list[Poly] = []
    for poly, report in reports.items():
        if report.unresolved.degree >= 1:
            for point in points:
                while poly(point).is_zero():
                    poly = poly // Poly.of([-point, 1])
            rests.append(poly)
    factors = []
    for element in gcd_free_base(rests):
        report = gaussian_rational_roots(element)
        points.update(root for root, _mult in report.roots)
        if report.unresolved.degree >= 1:
            factors.append(Place(None, element))
    return PlacesReport((*(Place(z) for z in sorted(points)), *factors, INFINITY))


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


def active_nac_colorings(m: ParametrizedMotion) -> ActiveNacReport:
    """Colorings induced by thresholding valuations at every place.

    At each place the thresholds tried are exactly the attained valuation
    levels that have a strictly larger level present (red = strictly above
    the threshold); sweeping anything between attained levels cannot change
    the induced partition.  Every produced coloring is asserted to be a
    NAC-coloring and the set is deduplicated.
    """
    found: set[NacColoring] = set()
    for table in all_valuation_tables(m):
        vals = table.as_dict()
        # the top level has nothing above it, so it is no threshold
        for alpha in sorted(set(vals.values()))[:-1]:
            red = frozenset(e for e, v in vals.items() if v > alpha)
            coloring = NacColoring(m.graph, red)
            if not is_nac(m.graph, coloring):
                raise MotionError(
                    f"threshold {alpha} at place {table.place} produced a non-NAC coloring; "
                    "the motion data is inconsistent"
                )
            found.add(coloring)
    return ActiveNacReport(frozenset(found))


# -- JSON interchange --------------------------------------------------------


def _poly_json(p: Poly) -> list[list[str]]:
    if p.is_zero():
        return [["0/1", "0/1"]]
    return [[_fraction_str(c.re), _fraction_str(c.im)] for c in p.coeffs]


def _poly_from_json(data) -> Poly:
    coeffs = []
    for pair in data:
        if not (type(pair) is list and len(pair) == 2):
            raise ValueError(f"coefficient {pair!r} must be a [real, imaginary] pair")
        coeffs.append(GaussianRational.of(*pair))
    return Poly.of(coeffs)


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
    vertices = data["vertices"]
    if not isinstance(vertices, dict):
        raise ValueError("vertices must be an object keyed by vertex")
    coords = []
    for v in range(g.n):
        entry = vertices.get(str(v))
        if not isinstance(entry, dict) or "x" not in entry or "y" not in entry:
            raise ValueError(f"vertex {v} needs an entry with x and y in vertices")
        x, y = _rf_from_json(entry["x"]), _rf_from_json(entry["y"])
        _require_real(x, f"x_{v}")
        _require_real(y, f"y_{v}")
        coords.append(x + _I * y)
    fixed_edge = tuple(json_edges([data["fixed_edge"]])[0])
    return ParametrizedMotion(g, fixed_edge, tuple(coords))


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
    edges, values = json_edges(data["edges"]), data["lambda_sq"]
    if len(edges) != len(values):
        raise ValueError(f"{len(edges)} edges but {len(values)} squared lengths")
    out: Labeling = {}
    for (u, v), s in zip(edges, values):
        if min(u, v) < 0:
            raise ValueError(f"edge ({u},{v}) needs two nonnegative integer vertices")
        val = _as_fraction(s)
        if val <= 0:
            raise ValueError(f"edge ({u},{v}) has non-positive squared length")
        if edge(u, v) in out:
            raise ValueError(f"edge ({u},{v}) is listed twice")
        out[edge(u, v)] = val
    return out
