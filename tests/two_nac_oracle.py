"""Reference two-NAC solution space: dense Gauss-Jordan elimination.

This is the solve `constructions.two_nac_solution_space` made before it
became a sparse elimination with vertex 0 pinned by unit rows: vertex 0's
columns are dropped, every row is a dense list over the 3(n-1) remaining
unknowns, and the origin is put back in front of each basis vector.  For a
fixed column order the reduced row echelon form is unique, so
`tests/test_constructions.py` asserts that both return the same basis.
"""

from __future__ import annotations

from fractions import Fraction

from movability.constructions import _NORMALS, _PAIR_INDEX
from movability.graphs import Graph
from movability.nac import NacColoring


def two_nac_solution_space(g: Graph, first: NacColoring, second: NacColoring):
    nvar = 3 * (g.n - 1)
    rows: list[list[Fraction]] = []
    for u, v in g.sorted_edges():
        for normal in _NORMALS[_PAIR_INDEX[first.color(u, v), second.color(u, v)]]:
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
        for vec in nullspace(rows, nvar)
    ]


def nullspace(rows: list[list[Fraction]], nvar: int) -> list[list[Fraction]]:
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
