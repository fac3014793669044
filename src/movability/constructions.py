"""Constructions of proper flexible labelings, each with a checkable witness.

Three general routes: the axes construction for bipartite graphs, the grid
realization from a single NAC-coloring, and the R^3-embedding construction
from a pair of NAC-colorings (driven by a moving quadrilateral frame).  The
8-vertex graphs none of them covers get exact bespoke motions here: S1-S4 an
axes motion of a K33 core with two extension vertices (`axes_recipe`), S5 a
closed-form motion (`s5_motion`).  The numeric gluing of S1-S3 that
`construct glue` prints lives in the gluing module; no certificate uses it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, zip_longest
from typing import Iterable, Mapping, Sequence

from .exact import P_ONE, GaussianRational, Poly, _fraction_str, _poly
from .graphs import Edge, Graph, bits, component_of, edge
from .nac import BLUE, RED, NacColoring, is_nac
from .motion import Labeling, MotionError, ParametrizedMotion, verify_injectivity, w_function
from .ratfunc import RationalFunction, over_one_denominator

Triple = tuple[Fraction, Fraction, Fraction]

# direction assigned to the color pair (first coloring, second coloring)
DIRECTIONS: tuple[tuple[int, int, int], ...] = (
    (1, 0, 0),  # blue, blue
    (0, 1, 0),  # blue, red
    (0, 0, 1),  # red, blue
    (-1, -1, -1),  # red, red
)

_PAIR_INDEX = {(BLUE, BLUE): 0, (BLUE, RED): 1, (RED, BLUE): 2, (RED, RED): 3}

# two vectors orthogonal to DIRECTIONS[k]: an edge of class k has an endpoint
# difference orthogonal to both
_NORMALS: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...] = (
    ((0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0)),
    ((1, -1, 0), (1, 0, -1)),
)

# _DOTS[k][i][d] = _NORMALS[k][i] . DIRECTIONS[d]
_DOTS = tuple(
    tuple(tuple(sum(c * x for c, x in zip(normal, d)) for d in DIRECTIONS) for normal in normals)
    for normals in _NORMALS
)

# generic points two_nac_embedding samples before giving up
_EMBEDDING_TRIES = 64


class ConstructionInapplicable(ValueError):
    """The construction's precondition failed; says nothing about movability."""


# -- rational circle ---------------------------------------------------------


def unit_circle() -> RationalFunction:
    """E = (1 + it)/(1 - it) = cos + i sin of the half-angle parameter t."""
    return RationalFunction.of(Poly.of([1, (0, 1)]), Poly.of([1, (0, -1)]))


def _const(x) -> RationalFunction:
    return RationalFunction.const(GaussianRational.of(x))


# -- Dixon's axes construction ----------------------------------------------

# (axis, m): the radical sqrt(m^2 - t^2) on the x-axis, sqrt(m^2 + t^2) on the y-axis
Radical = tuple[str, Fraction]


@dataclass(frozen=True)
class AxesMotion:
    """Dixon's type I motion of a core on the axes, with a rational extension.

    A core vertex with x-parameter x sits at (sign(x) sqrt(x^2 - t^2), 0) and
    one with y-parameter y at (0, sign(y) sqrt(y^2 + t^2)), for |t| < min |x|.
    Every other vertex v sits at the sum over core vertices w of
    (a + bJ) p_w, with (a, b) = extension[v][w] and J the rotation by 90
    degrees.  Each coordinate is then a rational combination of radicals r_k,
    one per distinct (axis, |parameter|).  Their radicands are square-free and
    pairwise coprime polynomials in t, so 1, t^2 and the products r_k r_l
    (k < l) are linearly independent over Q, and every check below is exact.

    Each pair's squared distance is computed once, when first asked, and
    kept with the positions and the properness outside the dataclass
    fields.  The motion is immutable: its mappings must not be mutated
    after construction, since every cached value is read from them.
    """

    graph: Graph
    x_params: Mapping[int, Fraction]
    y_params: Mapping[int, Fraction]
    extension: Mapping[int, Mapping[int, tuple[Fraction, Fraction]]] = field(default_factory=dict)

    def __post_init__(self):
        for coll, name in ((self.x_params, "x"), (self.y_params, "y")):
            for v, val in coll.items():
                if val == 0:
                    raise ConstructionInapplicable(f"{name} parameter of vertex {v} is zero")
        core = [*self.x_params, *self.y_params]
        placed = core + list(self.extension)
        if sorted(placed) != list(range(self.graph.n)):
            raise ConstructionInapplicable("the core and the extension must place every vertex once")
        for v, combination in self.extension.items():
            if not set(combination) <= set(core):
                raise ConstructionInapplicable(f"vertex {v} is not a combination of core vertices")

    @cached_property
    def _vectors(self) -> dict[int, dict[Radical, tuple[Fraction, Fraction]]]:
        """Per vertex, its position as a (x, y) coefficient pair per radical."""
        out: dict[int, dict[Radical, tuple[Fraction, Fraction]]] = {}
        for u, x in self.x_params.items():
            out[u] = {("x", abs(x)): (Fraction(1 if x > 0 else -1), Fraction(0))}
        for v, y in self.y_params.items():
            out[v] = {("y", abs(y)): (Fraction(0), Fraction(1 if y > 0 else -1))}
        for v, combination in self.extension.items():
            acc: dict[Radical, tuple[Fraction, Fraction]] = {}
            for w, (a, b) in combination.items():
                for k, (x, y) in out[w].items():
                    ax, ay = acc.get(k, (0, 0))
                    acc[k] = (ax + a * x - b * y, ay + a * y + b * x)
            out[v] = acc
        return out

    def parameter_bound(self) -> Fraction:
        """The motion is defined for |t| below this, the least |x|."""
        return min(abs(x) for x in self.x_params.values())

    @cached_property
    def _distances(self) -> dict[Edge, Fraction | None]:
        """`squared_distance` per unordered pair (u < v), filled as asked."""
        return {}

    def squared_distance(self, u: int, v: int) -> Fraction | None:
        """|p_u - p_v|^2 when it is constant in t, else None; computed once
        per unordered pair."""
        key = (u, v) if u < v else (v, u)
        memo = self._distances
        if key not in memo:
            memo[key] = self._squared_distance(*key)
        return memo[key]

    def _squared_distance(self, u: int, v: int) -> Fraction | None:
        """`squared_distance`, computed afresh.

        With d_k the coefficient pair of r_k in p_u - p_v, the squared
        distance is sum |d_k|^2 (m_k^2 -+ t^2) + 2 sum_{k<l} (d_k . d_l) r_k r_l:
        constant iff its t^2 coefficient and every d_k . d_l vanish."""
        pu, pv = self._vectors[u], self._vectors[v]
        diff = []
        for k in pu.keys() | pv.keys():
            (ux, uy), (vx, vy) = pu.get(k, (0, 0)), pv.get(k, (0, 0))
            if ux != vx or uy != vy:
                diff.append((k, ux - vx, uy - vy))
        value = slope = Fraction(0)
        for (axis, m), x, y in diff:
            norm = x * x + y * y
            value += norm * m * m
            slope += norm if axis == "y" else -norm
        if slope or any(x1 * x2 + y1 * y2 for (_, x1, y1), (_, x2, y2) in combinations(diff, 2)):
            return None
        return value

    def labeling(self) -> Labeling:
        """The squared edge lengths; raises when an edge changes length."""
        out: Labeling = {}
        for u, v in self.graph.sorted_edges():
            lam = self.squared_distance(u, v)
            if lam is None:
                raise ConstructionInapplicable(f"edge ({u},{v}) changes length along the axes motion")
            out[(u, v)] = lam
        return out

    def positions_at_zero(self) -> list[tuple[Fraction, Fraction]]:
        """The realization at t = 0, where every radical is |parameter|."""
        return [self._evaluate(v, lambda k: k[1]) for v in range(self.graph.n)]

    def realize_float(self, t: float) -> list[tuple[float, float]]:
        if abs(t) >= self.parameter_bound():
            raise ValueError(f"|t| must stay below {self.parameter_bound()}")

        def root(k: Radical) -> float:
            axis, m = k
            return math.sqrt(float(m) ** 2 + (t * t if axis == "y" else -t * t))

        return [tuple(map(float, self._evaluate(v, root))) for v in range(self.graph.n)]

    def _evaluate(self, v: int, root) -> tuple:
        """Position of v with root(k) substituted for each radical k."""
        vec = self._vectors[v].items()
        return sum(x * root(k) for k, (x, _) in vec), sum(y * root(k) for k, (_, y) in vec)

    def is_proper(self) -> bool:
        """Injective at t = 0, hence near it, and not a rigid motion: some
        non-edge changes length."""
        return self._proper

    @cached_property
    def _proper(self) -> bool:
        """`is_proper`, decided when first asked."""
        points = self.positions_at_zero()
        if len(set(points)) != len(points):
            return False
        return any(self.squared_distance(u, v) is None for u, v in self.graph.non_edges())


def dixon_one(
    g: Graph,
    x_params: Mapping[int, Fraction],
    y_params: Mapping[int, Fraction],
) -> tuple[Labeling, AxesMotion]:
    """Labeling lambda^2(uv) = x_u^2 + y_v^2 for a bipartite graph: the axes
    motion with no extension.

    Compatibility is the Pythagorean identity
    (x_u^2 - t^2) + (y_v^2 + t^2) = x_u^2 + y_v^2.  Parameters whose motion
    is not proper, such as two equal ones in a class, are inapplicable.
    """
    ok, parts = g.is_bipartite()
    if not ok:
        raise ConstructionInapplicable("graph is not bipartite (odd cycle found)")
    if g.n < 3:
        raise ConstructionInapplicable("axes construction needs at least three vertices")
    if {frozenset(x_params), frozenset(y_params)} != set(map(frozenset, parts)):
        raise ConstructionInapplicable(
            "parameter keys must cover the two bipartition classes exactly"
        )
    motion = AxesMotion(
        g,
        {k: Fraction(v) for k, v in x_params.items()},
        {k: Fraction(v) for k, v in y_params.items()},
    )
    if not motion.is_proper():
        raise ConstructionInapplicable(
            "axes motion is not proper: two vertices coincide or no non-edge changes length"
        )
    return motion.labeling(), motion


def axes_parameters(g: Graph) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Default dixon_one parameters 1, 2, ..., k per class in vertex order;
    the class of vertex 0 goes on the x-axis."""
    ok, parts = g.is_bipartite()
    if not ok:
        raise ConstructionInapplicable("graph is not bipartite")
    a, b = parts
    x = {v: Fraction(i + 1) for i, v in enumerate(sorted(a))}
    y = {v: Fraction(i + 1) for i, v in enumerate(sorted(b))}
    return x, y


# -- grid construction from one NAC-coloring ---------------------------------


def grid_construction(
    g: Graph, coloring: NacColoring
) -> tuple[tuple[tuple[int, int], ...], Labeling, ParametrizedMotion]:
    """Grid realization induced by one NAC-coloring: (points, labeling, motion).

    Vertex v goes to z = i + j*E, with E on the unit circle, where
    points[v] = (i, j): i indexes its red component and j its blue one; red
    edges keep i, blue edges keep j, so all edge lengths are
    angle-independent.  Applicable iff no two vertices share a cell.

    Relative to the pinned vertex, z = a + bE with integers a and b, written
    in closed form: with E = (1 + it)/(1 - it), a + bE is
    ((a - b)t + i(a + b))/(t + i) when b != 0, and the constant a when
    b = 0.  The denominator is monic, and the numerator takes the value 2ib
    at t = -i, so it is prime to t + i: the form is the canonical one that
    `RationalFunction` arithmetic would reach.
    """
    _check_colorings(g, coloring)
    # components are numbered as vertex order first meets them, which is the
    # order of their lowest vertex; isolated vertices are singletons
    (_, red_comp), (_, blue_comp) = coloring._sides
    red_index: dict[int, int] = {}
    blue_index: dict[int, int] = {}
    seen: dict[tuple[int, int], int] = {}
    for v, (r, b) in enumerate(zip(red_comp, blue_comp)):
        cell = (red_index.setdefault(r, len(red_index)), blue_index.setdefault(b, len(blue_index)))
        if cell in seen:
            raise ConstructionInapplicable(
                f"vertices {seen[cell]} and {v} share grid cell {cell}: "
                f"|R_{cell[0]} ∩ B_{cell[1]}| >= 2"
            )
        seen[cell] = v
    coords = list(seen)  # one cell per vertex, in vertex order
    base, tip = _horizontal_pin(sorted(coloring.blue), [i for i, _ in coords])
    ib, jb = coords[base]
    z = tuple(_grid_point(i - ib, j - jb) for i, j in coords)
    motion = ParametrizedMotion(g, (base, tip), z)
    return tuple(coords), motion.induced_labeling(), motion


_T_PLUS_I = Poly.of([(0, 1), 1])


def _grid_point(a: int, b: int) -> RationalFunction:
    """a + bE in canonical form (see `grid_construction`)."""
    if not b:
        return RationalFunction(_poly([(a, 0)], 1), P_ONE)
    return RationalFunction(_poly([(0, a + b), (a - b, 0)], 1), _T_PLUS_I)


def _horizontal_pin(edges: Iterable[Edge], x: Sequence) -> tuple[int, int]:
    """The pinned edge of a motion whose horizontal edges, in ascending order,
    are `edges`: the first, oriented so that the free endpoint sits on the
    positive x-axis (x[u] < x[v] for the returned (u, v))."""
    u, v = next(iter(edges))
    return (u, v) if x[u] < x[v] else (v, u)


def grid_search(
    g: Graph, colorings: Iterable[NacColoring]
) -> tuple[NacColoring, tuple[tuple[int, int], ...], Labeling, ParametrizedMotion]:
    """(coloring, points, labeling, motion) of the grid construction from the
    first coloring, in order, that admits it; raises the last
    ConstructionInapplicable when none does."""
    last_error = ConstructionInapplicable("no NAC-coloring to try")
    for coloring in colorings:
        try:
            return (coloring, *grid_construction(g, coloring))
        except ConstructionInapplicable as exc:
            last_error = exc
    raise last_error


# -- R^3 embedding from two NAC-colorings ------------------------------------


@dataclass(frozen=True)
class EmbeddingR3:
    """Injective vertex embedding in R^3.  `two_nac_embedding` builds one in
    which every edge is parallel to the direction its color pair selects;
    the class itself checks only injectivity."""

    graph: Graph
    points: tuple[Triple, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("embedding is not injective")

    def to_json(self) -> str:
        return json.dumps(
            {
                str(v): [_fraction_str(c) for c in p]
                for v, p in enumerate(self.points)
            }
        )


def _check_colorings(g: Graph, *colorings: NacColoring) -> None:
    for coloring in colorings:
        if not is_nac(g, coloring):
            raise ConstructionInapplicable("a supplied coloring is not a NAC-coloring")


def _pair_classes(g: Graph, first: NacColoring, second: NacColoring) -> dict[Edge, int]:
    """The DIRECTIONS index of each edge: the one its color pair selects, in
    ascending edge order, so that `_tree_kernel` inserts its rows in an
    order fixed by the labels, not by how the edge set was built."""
    return {
        e: _PAIR_INDEX[RED if e in first.red else BLUE, RED if e in second.red else BLUE]
        for e in g.sorted_edges()
    }


def _require_every_class(g: Graph, first: NacColoring, second: NacColoring) -> None:
    """Raise unless every color pair selects some edge of g, read off the
    sizes of the two red classes R1 and R2 (both sets of edges of g): the
    pair (red, red) needs |R1 & R2| > 0, (red, blue) |R1| > |R1 & R2|,
    (blue, red) |R2| > |R1 & R2| and (blue, blue) |R1 | R2| < |E|.  The
    missing pairs are listed in `_PAIR_INDEX` order."""
    red1, red2 = len(first.red), len(second.red)
    both = len(first.red & second.red)
    # in _PAIR_INDEX order: (blue, blue), (blue, red), (red, blue), (red, red)
    present = (red1 + red2 - both < len(g.edges), red2 > both, red1 > both, both > 0)
    missing = [p for p, ok in zip(_PAIR_INDEX, present) if not ok]
    if missing:
        raise ConstructionInapplicable(
            f"direction classes for color pairs {missing} are empty"
        )


def _tree_kernel(g: Graph, classes: Mapping[Edge, int]) -> list[tuple[tuple[int, int, int], ...]]:
    """Integer basis of the positions with p_0 = 0 and every edge parallel to
    the direction of its class in `classes`, as vertex triples.

    A BFS forest rooted at the lowest vertex of each component fixes the
    unknowns: one scalar s_e per tree edge e of class k, so p_w - p_u =
    s_e * DIRECTIONS[k] from parent u to child w, and three free coordinates
    for every root but vertex 0.  Each non-tree edge (u, v) of class k
    contributes the rows N . (p_v - p_u) = 0 for N in _NORMALS[k], over the
    scalars of the tree path from u to v.  The rows are reduced over int by
    `_insert`, kept primitive by gcd in the manner of Bareiss's fraction-free
    elimination, and never become `Fraction`s.  Any fully reduced system
    serves: each unknown that is no row's pivot gives one kernel vector, and
    callers read twins off the kernel whatever its basis or take the unique
    basis of `_echelon_on_last`.
    """
    masks = g.masks()
    path: list[frozenset[int] | None] = [None] * g.n  # tree scalars above each vertex
    direction: list[int] = []  # the DIRECTIONS index of each unknown
    steps: list[tuple[int, int, int]] = []  # (vertex, parent or -1, its unknown), BFS order
    tree: set[Edge] = set()
    for root in range(g.n):
        if path[root] is not None:
            continue
        path[root] = frozenset()
        if root:
            steps.append((root, -1, len(direction)))
            direction += (0, 1, 2)  # DIRECTIONS[0..2] are the unit vectors
        queue = [root]
        for u in queue:
            for w in bits(masks[u]):
                if path[w] is None:
                    e = edge(u, w)
                    tree.add(e)
                    steps.append((w, u, len(direction)))
                    path[w] = path[u] | {len(direction)}
                    direction.append(classes[e])
                    queue.append(w)
    nvar = len(direction)
    kept: dict[int, list[int]] = {}
    for e, k in classes.items():
        if e in tree:
            continue
        u, v = e
        up, down = path[v] - path[u], path[u] - path[v]
        for dots in _DOTS[k]:
            row = [0] * nvar
            for j in up:
                row[j] = dots[direction[j]]
            for j in down:
                row[j] = -dots[direction[j]]
            _insert(kept, row)
    kernel = []
    for free in range(nvar):
        if free in kept:
            continue
        rows = [(p, r) for p, r in kept.items() if r[free]]
        scale = math.lcm(*(r[p] for p, r in rows))
        x = [0] * nvar
        x[free] = scale
        for p, r in rows:
            x[p] = -r[free] * (scale // r[p])
        points = [(0, 0, 0)] * g.n
        for v, parent, j in steps:
            if parent < 0:
                points[v] = (x[j], x[j + 1], x[j + 2])
            else:
                s, d, q = x[j], DIRECTIONS[direction[j]], points[parent]
                points[v] = (q[0] + s * d[0], q[1] + s * d[1], q[2] + s * d[2])
        kernel.append(tuple(points))
    return kernel


def _insert(kept: dict[int, list[int]], vec: list[int]) -> None:
    """Add vec to `kept`, integer vectors keyed by pivot with a zero at every
    other vector's pivot: vec is cleared at the existing pivots, pivoted on
    its last nonzero entry, and that column is cleared in the others.
    Nothing is added when vec reduces to zero."""
    for col, other in kept.items():
        vec = _eliminate(vec, col, other)
    nonzero = [c for c, x in enumerate(vec) if x]
    if not nonzero:
        return
    pivot = nonzero[-1]
    for col, other in kept.items():
        kept[col] = _eliminate(other, pivot, vec)
    kept[pivot] = vec


def _eliminate(vec: list[int], col: int, by: list[int]) -> list[int]:
    """An integer combination of vec and `by` (whose entry at `col` is
    nonzero) with a zero at `col`, divided by the gcd of its entries."""
    b = vec[col]
    if not b:
        return vec
    a = by[col]
    out = [a * x - b * y for x, y in zip(vec, by)]
    d = math.gcd(*out)
    return [x // d for x in out] if d > 1 else out


def _echelon_on_last(kernel: Sequence[tuple[tuple[int, int, int], ...]]) -> list[tuple[Triple, ...]]:
    """The basis of the span of `kernel` in which every vector has a 1 at its
    last nonzero coordinate and every other vector a 0 there, ordered by that
    coordinate.

    It is unique, and it is the basis the reduced row echelon form of the
    whole 3n-unknown system yields: one vector per free column, 1 there and
    0 at the other free columns.
    """
    reduced: dict[int, list[int]] = {}
    for given in kernel:
        _insert(reduced, [c for point in given for c in point])
    basis = []
    for col in sorted(reduced):
        vec = [Fraction(x, reduced[col][col]) for x in reduced[col]]
        basis.append(tuple(tuple(vec[3 * v : 3 * v + 3]) for v in range(len(vec) // 3)))
    return basis


def two_nac_solution_space(
    g: Graph, first: NacColoring, second: NacColoring
) -> list[tuple[Triple, ...]]:
    """Basis of the solution space of the edge-direction linear system.

    Vertex 0 is pinned to the origin and every edge's endpoint difference is
    parallel to the direction its color pair selects.  The space is solved on
    spanning-tree edge scalars (`_tree_kernel`) and returned in the basis
    reduced on each vector's last nonzero coordinate (`_echelon_on_last`):
    one vector per free coordinate, in increasing order, as a tuple of exact
    vertex triples.
    """
    _check_colorings(g, first, second)
    return _echelon_on_last(_tree_kernel(g, _pair_classes(g, first, second)))


def two_nac_embedding(
    g: Graph,
    first: NacColoring,
    second: NacColoring,
    *,
    seed: int = 0,
) -> EmbeddingR3:
    """Injective embedding from a pair of NAC-colorings, or a precise failure.

    The color pair of each edge selects its direction class (`_pair_classes`);
    the embedding keeps every edge parallel to its class's direction.  Empty
    direction classes are rejected first, from the sizes of the red classes
    (`_require_every_class`), then colorings that are not NAC-colorings of
    g.  Past those, a zero solution space and two vertices that coincide on
    the whole space are read off the integer kernel, whatever its basis.
    Otherwise a generic point of the space is sampled
    with small random integer coefficients (seeded) on the basis
    `two_nac_solution_space` returns; sampling only fails persistently when
    the space is too degenerate.
    """
    _require_every_class(g, first, second)
    _check_colorings(g, first, second)
    return _pair_embedding(g, _pair_classes(g, first, second), seed)


def _pair_embedding(g: Graph, classes: Mapping[Edge, int], seed: int) -> EmbeddingR3:
    """`two_nac_embedding` past its checks of the colorings."""
    kernel = _tree_kernel(g, classes)
    if not kernel:
        raise ConstructionInapplicable("the linear system has only the zero solution")
    groups: dict[tuple, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(tuple(vec[v] for vec in kernel), []).append(v)
    twins = [group[:2] for group in groups.values() if len(group) > 1]
    if twins:
        u, v = min(twins)
        raise ConstructionInapplicable(
            f"vertices {u} and {v} coincide on the whole solution space"
        )
    basis = _echelon_on_last(kernel)
    rng = random.Random(seed)
    for _ in range(_EMBEDDING_TRIES):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in basis]
        points = []
        for v in range(g.n):
            acc = [Fraction(0)] * 3
            for coeff, vec in zip(coeffs, basis):
                for k in range(3):
                    acc[k] += coeff * vec[v][k]
            points.append(tuple(acc))
        try:
            return EmbeddingR3(g, tuple(points))
        except ValueError:
            continue
    raise ConstructionInapplicable(
        "no injective generic point found (solution space too degenerate)"
    )


# -- quadrilateral frames and the induced motion ------------------------------


@dataclass(frozen=True)
class QuadMotion:
    """Motion of a 4-cycle together with its frame functions.

    The frame is f1 = z(c1)-z(c0), f2 = z(c2)-z(c1), f3 = z(c3)-z(c2) for the
    cycle (c0, c1, c2, c3); all three norms and |f1+f2+f3| are edge lengths,
    hence constant.  The motion must be pinned at (c0, c1) so that f1 lies on
    the x-axis, which is what lets the embedding construction pin its result.
    """

    motion: ParametrizedMotion
    cycle: tuple[int, int, int, int]

    def __post_init__(self):
        c0, c1, c2, c3 = self.cycle
        g = self.motion.graph
        for a, b in ((c0, c1), (c1, c2), (c2, c3), (c3, c0)):
            if edge(a, b) not in g.edges:
                raise ValueError(f"({a},{b}) is not an edge of the quadrilateral")
        if self.motion.fixed_edge != (c0, c1):
            raise ValueError("quad motion must be pinned at the first cycle edge")

    def frames(self) -> tuple[RationalFunction, RationalFunction, RationalFunction]:
        m, (c0, c1, c2, c3) = self.motion, self.cycle
        return w_function(m, c0, c1), w_function(m, c1, c2), w_function(m, c2, c3)

    @cached_property
    def _over_common_denominator(self) -> tuple[Poly, tuple[tuple[tuple[int, int], ...], ...], int]:
        """(D, columns, e): `over_one_denominator` of the frames, f_k =
        N_k / D, with its rows transposed: columns[j][k] is e times the
        coefficient of t^j in N_k."""
        den, rows, e = over_one_denominator(self.frames())
        columns = tuple(zip_longest(*rows, fillvalue=(0, 0)))
        return den, columns, e


def deltoid_motion(scale: Fraction = Fraction(1)) -> QuadMotion:
    """The rational deltoid motion of the 4-cycle, edge lengths (a, 3a, 3a, a).

    Vertices 0 and 1 are pinned; vertex 2 runs on a circle of radius 3a and
    vertex 3 follows on the coupler:
      z2 = 4a (t + i)/(t - 2i),  z3 = a (t + i)(t + 2i)/((t - i)(t - 2i)).
    Frame norms squared are (a^2, 9a^2, 9a^2) with |f1+f2+f3|^2 = a^2.
    """
    a = Fraction(scale)
    if a <= 0:
        raise ConstructionInapplicable("scale must be positive")
    g = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    z2 = RationalFunction.of(Poly.of([(0, 4 * a), 4 * a]), Poly.of([(0, -2), 1]))
    z3 = RationalFunction.of(Poly.of([-2 * a, (0, 3 * a), a]), Poly.of([-2, (0, -3), 1]))
    motion = ParametrizedMotion(g, (0, 1), (_const(0), _const(a), z2, z3))
    return QuadMotion(motion, (0, 1, 2, 3))


def motion_from_embedding(omega: EmbeddingR3, quad: QuadMotion) -> ParametrizedMotion:
    """Drive the embedded graph by the quadrilateral frame.

    Vertex u moves as w1(u) f1 + w2(u) f2 + w3(u) f3; an edge parallel to a
    coordinate direction moves as a multiple of one frame function (or of
    their sum for the (-1,-1,-1) class), so its length is constant.  The
    result is pinned at the least edge whose endpoints differ only in x, an
    edge of the (1,0,0) class, which is horizontal, by subtracting the
    pinned vertex's coefficients.  An embedding with no such edge is
    rejected; one with an edge outside the four classes gives no motion
    (ParametrizedMotion raises MotionError).

    The frames are put over their monic least common denominator D,
    f_k = N_k / D, once per `QuadMotion`, so vertex u is
    z = (sum c_k N_k) / D with c_k its coefficients.  The N_k are Gaussian
    integers over one int e and the c_k integers over their least common
    denominator q, so the numerator is an integer sum over q*e.  One gcd of
    that numerator with D cancels every common factor and leaves D monic,
    so z is in canonical form.
    """
    g = omega.graph
    points = omega.points
    horizontal = [(u, v) for u, v in sorted(g.edges) if points[u][1:] == points[v][1:]]
    if not horizontal:
        raise ConstructionInapplicable("no edge of the embedding differs only in x")
    pin = _horizontal_pin(horizontal, [x for x, _, _ in points])
    origin = points[pin[0]]
    den, columns, e = quad._over_common_denominator
    z = []
    for p in points:
        cs = [w - o for w, o in zip(p, origin)]
        q = math.lcm(*(c.denominator for c in cs))
        ks = [c.numerator * (q // c.denominator) for c in cs]
        num = [(sum(k * x for k, (x, _) in zip(ks, col)), sum(k * y for k, (_, y) in zip(ks, col)))
               for col in columns]
        z.append(RationalFunction.of(_poly(num, q * e), den))
    return ParametrizedMotion(g, pin, tuple(z))


@cache
def _unit_deltoid() -> QuadMotion:
    """The unit-scale deltoid frame, built once when first needed; the
    frames of other scales are built afresh on each call."""
    return deltoid_motion()


def two_nac_search(
    g: Graph,
    pairs: Iterable[tuple[NacColoring, NacColoring]],
    *,
    seed: int = 0,
) -> tuple[NacColoring, NacColoring, EmbeddingR3, ParametrizedMotion]:
    """The first pair, in order, whose embedding is injective, with the motion
    the deltoid frame drives; raises the last ConstructionInapplicable when no
    pair has one.  The pairs are NAC-colorings of g, as `enumerate_nac` gives
    them, and are not checked again.  The motion is proper: the frame
    functions are linearly independent (rank 3 at t = 0..4, at any scale), so
    two vertices coincide for every t only if their embedding points are
    equal.

    A twin test rejects most pairs before the exact solve.  For classes
    a != b the normal N = DIRECTIONS[a] x DIRECTIONS[b] is orthogonal to both
    directions, so N . p is constant on each connected component of the
    union of the edges of classes a and b.  The six class pairs give six
    edge sets: each coloring's red edges and its blue edges (two classes
    that share a color of that coloring), and the edges where the two
    colorings agree and where they differ.  If two vertices share a
    component in three sets whose normals are linearly independent, their
    difference is orthogonal to three independent vectors, so they coincide
    at every solution, and the exact solve would reject the pair too.
    Sixteen of the twenty triples are independent (`_TWIN_TRIPLES`); the
    other four are the triples of class pairs through one class, whose
    normals all lie in the plane orthogonal to its direction.  The test is
    sufficient only: a pair it passes is decided by `_pair_embedding`, and
    a pair it rejects would never have embedded, so the first pair that
    embeds, and its embedding and motion, are the ones the exact solves
    alone give.  When every pair fails and the test rejected the last one,
    that pair is solved exactly so that the error raised is the exact
    solve's.  The red and blue partitions are the colorings' own sides,
    built once per coloring when first read; the agree and differ
    partitions are built once per pair.  Ahead of the twin test, empty
    direction classes are read off the sizes of the two red classes
    (`_require_every_class`), and the per-edge classes (`_pair_classes`)
    are built only for a pair that goes to the exact solve.

    Every search drives its embedding with one unit-scale deltoid frame,
    built the first time it is needed (`_unit_deltoid`), so the frames'
    common denominator is formed once.  The frame is immutable and the
    coordinates `motion_from_embedding` returns are canonical, so the
    motion is the one a freshly built frame gives.
    """
    last_error: ConstructionInapplicable | None = ConstructionInapplicable(
        "no pair of NAC-colorings to try"
    )
    for first, second in pairs:
        try:
            _require_every_class(g, first, second)
            if _has_twins(g, first, second):
                last_error = None  # the exact solve's message is taken after the loop
                continue
            embedding = _pair_embedding(g, _pair_classes(g, first, second), seed)
        except ConstructionInapplicable as exc:
            last_error = exc
            continue
        return first, second, embedding, motion_from_embedding(embedding, _unit_deltoid())
    if last_error is None:
        # raises: the last pair has twins
        _pair_embedding(g, _pair_classes(g, first, second), seed)
    raise last_error


def _cross(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


# the six class pairs (a, b), a < b, and their normals: N . p is constant on
# each component of the edges of classes a and b
_CLASS_PAIRS = tuple(combinations(range(len(DIRECTIONS)), 2))
_PAIR_NORMALS = tuple(_cross(DIRECTIONS[a], DIRECTIONS[b]) for a, b in _CLASS_PAIRS)
# the triples of class pairs whose normals are linearly independent
_TWIN_TRIPLES = tuple(
    (i, j, k)
    for i, j, k in combinations(range(len(_CLASS_PAIRS)), 3)
    if sum(x * y for x, y in zip(_PAIR_NORMALS[i], _cross(_PAIR_NORMALS[j], _PAIR_NORMALS[k])))
)
# in the order of _CLASS_PAIRS: (0, 1) share first's blue, (0, 2) second's
# blue, (0, 3) agree, (1, 2) differ, (1, 3) share second's red and (2, 3)
# first's red; the partitions 0, 1, 4 and 5 are the colorings' own sides
_SIDE_TRIPLES = tuple(t for t in _TWIN_TRIPLES if not {2, 3} & set(t))
_PAIR_TRIPLES = tuple(t for t in _TWIN_TRIPLES if {2, 3} & set(t))


def _has_twins(g: Graph, first: NacColoring, second: NacColoring) -> bool:
    """The twin test of `two_nac_search`: whether two vertices share a
    component in three edge sets with independent normals.  The triples of
    the colorings' own sides go first; the agree and differ partitions are
    built only for a pair that none of those rejects."""
    (first_red, first_red_comp), (_, first_blue_comp) = first._sides
    (second_red, second_red_comp), (_, second_blue_comp) = second._sides
    partitions = [first_blue_comp, second_blue_comp, None, None, second_red_comp, first_red_comp]
    if _twins_in(partitions, _SIDE_TRIPLES, g.n):
        return True
    differ = [x ^ y for x, y in zip(first_red, second_red)]
    agree = [m ^ d for m, d in zip(g.masks(), differ)]
    partitions[2], partitions[3] = component_of(agree), component_of(differ)
    return _twins_in(partitions, _PAIR_TRIPLES, g.n)


def _twins_in(partitions, triples, n: int) -> bool:
    """Whether two of the n vertices share a component in all three
    partitions of some triple."""
    for i, j, k in triples:
        p, q, r = partitions[i], partitions[j], partitions[k]
        for v in range(n):
            if p[v] & q[v] & r[v] != 1 << v:
                return True
    return False


# -- exact axes motions of S1-S4 ----------------------------------------------

S1_EDGES: tuple[Edge, ...] = (
    (0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (2, 5),
    (2, 7), (3, 4), (3, 6), (4, 5), (4, 7), (5, 6), (6, 7),
)

S2_EDGES: tuple[Edge, ...] = (
    (0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (1, 6), (1, 7),
    (2, 3), (2, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6),
)

S3_EDGES: tuple[Edge, ...] = (
    (0, 1), (0, 3), (0, 4), (0, 6), (0, 7), (1, 2), (1, 6),
    (2, 3), (2, 4), (2, 7), (3, 5), (4, 5), (5, 6), (5, 7),
)

S4_EDGES: tuple[Edge, ...] = (
    (0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (2, 5),
    (3, 4), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (6, 7),
)

F = Fraction


def _rides(base: int, tip: int, a: Fraction, b: Fraction) -> dict[int, tuple[Fraction, Fraction]]:
    """p_base + (a + bJ)(p_tip - p_base) as coefficients per core vertex."""
    return {base: (1 - a, -b), tip: (a, b)}


# name: (edges, x-parameters, y-parameters, extension); each core is a K33
# with signs: S1 = prism on {0..5} and K33 on {2..7}, S2 and S3 the K33 their
# seven-vertex parts ride on, S4 = K33 on {0..5} plus a clique
_AXES_RECIPES = {
    "S1": (
        S1_EDGES,
        {3: F(-3, 5), 5: F(3, 5), 7: F(6, 5)},
        {2: F(-4, 5), 4: F(4, 5), 6: F(-6, 5)},
        {0: _rides(4, 5, F(2), F(0)), 1: _rides(3, 2, F(2), F(0))},
    ),
    "S2": (
        S2_EDGES,
        {1: F(1), 4: F(-1), 3: F(2)},
        {0: F(1), 2: F(-1), 7: F(3)},
        {6: _rides(1, 0, F(2), F(0)), 5: {4: (F(1), F(0)), 3: (F(1), F(0)), 2: (F(-1), F(0))}},
    ),
    "S3": (
        S3_EDGES,
        {3: F(1), 4: F(-1), 7: F(2)},
        {0: F(3), 2: F(1), 5: F(-1)},
        {
            6: {0: (F(1), F(0)), 4: (F(1), F(0)), 2: (F(-1), F(0))},
            1: {0: (F(1), F(0)), 4: (F(-1), F(0)), 2: (F(1), F(0))},
        },
    ),
    # the clique {3,4,6,7} rides on the edge (3,4), with p6 = (1, 1) and
    # p7 = (2, 1) at t = 0
    "S4": (
        S4_EDGES,
        {1: F(-1), 3: F(5, 4), 5: F(-3, 2)},
        {0: F(1), 2: F(-5, 4), 4: F(3, 2)},
        {6: _rides(3, 4, F(29, 61), F(-14, 61)), 7: _rides(3, 4, F(9, 61), F(-38, 61))},
    ),
}


def axes_recipe(name: str) -> AxesMotion:
    """The exact axes motion of S1, S2, S3 or S4 on the 8 vertices of its
    edge list above."""
    edges, x, y, extension = _AXES_RECIPES[name]
    return AxesMotion(Graph.of(8, edges), x, y, extension)


# -- the ad-hoc motion of S5 --------------------------------------------------


S5_EDGES_MOTION_LABELS: tuple[Edge, ...] = (
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (2, 6),
    (3, 4), (3, 5), (3, 6), (4, 7), (5, 7), (6, 7),
)


def s5_graph_motion_labels() -> Graph:
    """S5 in the labeling its closed-form motion uses.

    Vertex roles: 0 the center, 1/2 the far collinear pair, 3 the circling
    vertex, 4 on the ray through 0 and 3, 5/6 the antiparallelogram tips,
    7 the rhombus apex.
    """
    return Graph.of(8, S5_EDGES_MOTION_LABELS)


def s5_motion(a: Fraction) -> tuple[Labeling, ParametrizedMotion]:
    """Closed-form proper flexible labeling of S5 with shape parameter a > 1.

    Triangles (0,1,2) and (0,3,4) stay collinear, quadrilaterals (0,3,5,1)
    and (0,3,6,2) move as antiparallelograms, (3,6,7,5) as a rhombus:
      z3 = E,  z4 = (1 - a^2)/(1 + a^2) E,
      z5 = -(a^2 - 1) E/(aE + 1),  z6 = (a^2 - 1) E/(aE - 1),  z7 = z5 + z6 - z3,
    with E on the unit circle.  Its parameter is rationalized, so every
    coordinate is an exact rational function and every edge length is
    checked constant.
    """
    a = Fraction(a)
    if a <= 1:
        raise ConstructionInapplicable("the shape parameter must exceed 1")
    g = s5_graph_motion_labels()
    e = unit_circle()
    ke, ae = _const(a * a - 1) * e, _const(a) * e
    z5 = -ke / (ae + _const(1))
    z6 = ke / (ae - _const(1))
    coords = (
        _const(0), _const(-a), _const(a),
        e, _const((1 - a * a) / (1 + a * a)) * e,
        z5, z6, z5 + z6 - e,
    )
    try:
        motion = ParametrizedMotion(g, (0, 2), coords)
    except MotionError as exc:  # pragma: no cover - guards transcription bugs
        raise ConstructionInapplicable(f"motion incompatible at a={a}: {exc}") from exc
    report = verify_injectivity(motion)
    if not report.proper:
        raise ConstructionInapplicable(
            f"parameter a={a} collapses vertex pairs {report.coinciding_pairs}"
        )
    return motion.induced_labeling(), motion
