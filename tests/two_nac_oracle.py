"""Reference two-NAC solves: the sparse elimination and the dense one before it.

`two_nac_solution_space` and `two_nac_embedding` are the solve
`movability.constructions` made before it moved to spanning-tree edge
scalars: unknown 3v+k is coordinate k of vertex v, three unit rows pin
vertex 0 to the origin, every edge contributes two rows, and `_nullspace`
keeps the rows in reduced row echelon form over `Fraction`.
`dense_solution_space` is the solve before that one: dense Gauss-Jordan
elimination with vertex 0's columns dropped.  For a fixed column order the
reduced row echelon form is unique, so `tests/test_constructions.py` asserts
that all of them return the same basis and that both embeddings have the
same outcome.

`direction_class` is the geometric classifier the package used before the
coloring pair alone fixed each edge's class, kept verbatim:
`tests/test_constructions.py` asserts that every embedding the package
builds puts each edge in the class its color pair selects.

`two_nac_search` is the pair search before the twin test ran ahead of each
exact solve, kept verbatim: every pair with four nonempty classes goes to
`_pair_embedding`.  `tests/test_constructions.py` asserts that both
searches return the same pair, embedding and motion, or raise the same
message.

`motion_from_embedding` is the frame drive before the frames were put over
one denominator, kept verbatim: each vertex's z is a sum of three
products of a constant and a frame function, formed by `RationalFunction`
arithmetic, on a frame the caller builds.  The oracle search above drives
its embedding with it on a deltoid frame built afresh, as the search did
before it reused one unit frame.  Canonical forms are unique, so the
tests assert that both give the same coordinates, fixed edge and
labeling.

`has_twins` is the twin test before the triples of the colorings' own
sides ran first, kept verbatim: it builds all six partitions for every
pair.  `tests/test_constructions.py` asserts that both tests return the
same boolean on every coloring pair of the catalog entries and of their
one-edge deletions.

`_require_every_class` is the check of nonempty direction classes before
it read them off the sizes of the two red classes, kept verbatim: it reads
the class of every edge from the mapping `_pair_classes` builds.
`tests/test_constructions.py` asserts that both raise on the same ordered
coloring pairs of the catalog entries and of their one-edge deletions, with
the same message.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from movability.constructions import (
    _EMBEDDING_TRIES,
    _NORMALS,
    _PAIR_INDEX,
    _TWIN_TRIPLES,
    ConstructionInapplicable,
    EmbeddingR3,
    QuadMotion,
    _const,
    _horizontal_pin,
    _pair_classes,
    _pair_embedding,
    deltoid_motion,
)
from movability.graphs import Edge, Graph, component_of
from movability.motion import ParametrizedMotion
from movability.nac import NacColoring, is_nac

from conftest import color


def _require_every_class(classes: Mapping[Edge, int]) -> None:
    present = set(classes.values())
    missing = [p for p, k in _PAIR_INDEX.items() if k not in present]
    if missing:
        raise ConstructionInapplicable(
            f"direction classes for color pairs {missing} are empty"
        )


def direction_class(d: Sequence[Fraction]) -> int:
    """Index k of the DIRECTIONS entry that the nonzero vector d is parallel
    to: d is orthogonal to both vectors of _NORMALS[k]."""
    if any(d):
        for k, normals in enumerate(_NORMALS):
            if all(sum(c * x for c, x in zip(normal, d)) == 0 for normal in normals):
                return k
    raise ValueError(f"direction {d} matches no class")


def two_nac_solution_space(g: Graph, first: NacColoring, second: NacColoring):
    for coloring in (first, second):
        if coloring.graph != g:
            raise ValueError("coloring belongs to a different graph")
        if not is_nac(g, coloring):
            raise ConstructionInapplicable("a supplied coloring is not a NAC-coloring")
    rows: list[dict[int, Fraction]] = [{k: Fraction(1)} for k in range(3)]
    for u, v in g.sorted_edges():
        for normal in _NORMALS[_PAIR_INDEX[color(first, u, v), color(second, u, v)]]:
            rows.append({3 * w + k: Fraction(sign * c) for w, sign in ((u, 1), (v, -1))
                         for k, c in enumerate(normal) if c})
    return [
        tuple(tuple(vec[3 * v : 3 * v + 3]) for v in range(g.n))
        for vec in _nullspace(rows, 3 * g.n)
    ]


def _nullspace(rows: Iterable[Mapping[int, Fraction]], nvar: int) -> list[list[Fraction]]:
    """Exact nullspace basis of sparse rows {column: value}: one vector per
    free column, in increasing order.

    The kept rows, keyed by pivot column, stay in reduced row echelon form:
    each incoming row is reduced against them; a nonzero remainder is
    normalized on its first column, which is then eliminated from the kept
    rows.  The RREF is unique, so the basis does not depend on row order.
    """
    kept: dict[int, dict[int, Fraction]] = {}
    for given in rows:
        row = {c: x for c, x in given.items() if x}
        for p in row.keys() & kept.keys():
            _subtract(row, row[p], kept[p])
        if not row:
            continue
        pivot = min(row)
        lead = Fraction(row[pivot])
        row = {c: x / lead for c, x in row.items()}
        for other in kept.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        kept[pivot] = row
    return [
        [-kept[c].get(free, Fraction(0)) if c in kept else Fraction(c == free) for c in range(nvar)]
        for free in range(nvar) if free not in kept
    ]


def _subtract(row: dict[int, Fraction], factor: Fraction, other: Mapping[int, Fraction]) -> None:
    """row -= factor * other, dropping the entries that cancel."""
    for c, x in other.items():
        y = row.get(c, 0) - factor * x
        if y:
            row[c] = y
        else:
            row.pop(c, None)


def two_nac_embedding(
    g: Graph, first: NacColoring, second: NacColoring, *, seed: int = 0
) -> EmbeddingR3:
    pairs_seen = {(color(first, u, v), color(second, u, v)) for u, v in g.edges}
    missing = [p for p in _PAIR_INDEX if p not in pairs_seen]
    if missing:
        raise ConstructionInapplicable(
            f"direction classes for color pairs {missing} are empty"
        )
    basis = two_nac_solution_space(g, first, second)
    if not basis:
        raise ConstructionInapplicable("the linear system has only the zero solution")
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if all(vec[u] == vec[v] for vec in basis):
                raise ConstructionInapplicable(
                    f"vertices {u} and {v} coincide on the whole solution space"
                )
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


def dense_solution_space(g: Graph, first: NacColoring, second: NacColoring):
    nvar = 3 * (g.n - 1)
    rows: list[list[Fraction]] = []
    for u, v in g.sorted_edges():
        for normal in _NORMALS[_PAIR_INDEX[color(first, u, v), color(second, u, v)]]:
            row = [Fraction(0)] * nvar
            for w, sign in ((u, 1), (v, -1)):
                if w:  # vertex 0 is pinned to the origin
                    for k, c in enumerate(normal):
                        if c:
                            row[3 * (w - 1) + k] += sign * c
            rows.append(row)
    origin = (Fraction(0), Fraction(0), Fraction(0))
    return [
        (origin, *(tuple(vec[3 * (v - 1) : 3 * v]) for v in range(1, g.n)))
        for vec in _dense_nullspace(rows, nvar)
    ]


def _dense_nullspace(rows: list[list[Fraction]], nvar: int) -> list[list[Fraction]]:
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(nvar):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(nvar) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * nvar
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


def two_nac_search(
    g: Graph,
    pairs: Iterable[tuple[NacColoring, NacColoring]],
    *,
    seed: int = 0,
) -> tuple[NacColoring, NacColoring, EmbeddingR3, ParametrizedMotion]:
    last_error = ConstructionInapplicable("no pair of NAC-colorings to try")
    for first, second in pairs:
        try:
            classes = _pair_classes(g, first, second)
            _require_every_class(classes)
            embedding = _pair_embedding(g, classes, seed)
        except ConstructionInapplicable as exc:
            last_error = exc
            continue
        return first, second, embedding, motion_from_embedding(embedding, deltoid_motion())
    raise last_error


def motion_from_embedding(omega: EmbeddingR3, quad: QuadMotion) -> ParametrizedMotion:
    g = omega.graph
    frames = quad.frames()
    points = omega.points
    horizontal = [(u, v) for u, v in sorted(g.edges) if points[u][1:] == points[v][1:]]
    if not horizontal:
        raise ConstructionInapplicable("no edge of the embedding differs only in x")
    pin = _horizontal_pin(horizontal, [x for x, _, _ in points])
    origin = points[pin[0]]
    z = tuple(
        sum((_const(w - o) * f for w, o, f in zip(p, origin, frames)), _const(0))
        for p in points
    )
    return ParametrizedMotion(g, pin, z)


def has_twins(g: Graph, first: NacColoring, second: NacColoring) -> bool:
    """The twin test of `two_nac_search`: whether two vertices share a
    component in three edge sets with independent normals."""
    (first_red, first_red_comp), (_, first_blue_comp) = first._sides
    (second_red, second_red_comp), (_, second_blue_comp) = second._sides
    differ = [x ^ y for x, y in zip(first_red, second_red)]
    agree = [m ^ d for m, d in zip(g.masks(), differ)]
    # in the order of _CLASS_PAIRS: (0, 1) share first's blue, (0, 2)
    # second's blue, (0, 3) agree, (1, 2) differ, (1, 3) share second's red
    # and (2, 3) first's red
    partitions = (first_blue_comp, second_blue_comp, component_of(agree),
                  component_of(differ), second_red_comp, first_red_comp)
    for i, j, k in _TWIN_TRIPLES:
        p, q, r = partitions[i], partitions[j], partitions[k]
        for v in range(g.n):
            if p[v] & q[v] & r[v] != 1 << v:
                return True
    return False
