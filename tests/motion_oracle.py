"""Reference edge checks of a motion: W by Henrici's sum, then W*Z.

`ParametrizedMotion` proves its labeling by one polynomial identity per
edge over the coordinates' one denominator, and builds the table of edge
functions W only when a query first reads it.  This is the constructor's
check as it ran before, kept as the oracle: for each edge in order,
W = z_v - z_u by rational-function arithmetic, then the product W*Z, which
must be a positive rational constant.  It raises the constructor's
MotionError texts; `tests/test_edge_table.py` asserts that the two agree.
"""

from __future__ import annotations

from movability.graphs import Edge, Graph, edge
from movability.motion import Labeling, MotionError, _require_constant
from movability.ratfunc import RationalFunction


def edge_tables(
    g: Graph, fixed_edge: tuple[int, int], coords: tuple[RationalFunction, ...]
) -> tuple[dict[Edge, RationalFunction], Labeling]:
    """(W table, labeling) of the coordinates, or the MotionError the
    constructor raises for them."""
    if len(coords) != g.n:
        raise MotionError("coordinate count does not match vertex count")
    ub, vb = fixed_edge
    if edge(ub, vb) not in g.edges:
        raise MotionError(f"fixed pair ({ub},{vb}) is not an edge")
    if not coords[ub].is_zero():
        raise MotionError(f"vertex {ub} of the fixed edge is not at the origin")
    zv = _require_constant(coords[vb], f"z_{vb}")
    if zv.im != 0:
        raise MotionError(f"vertex {vb} of the fixed edge is not on the x-axis")
    if zv.re <= 0:
        raise MotionError(f"fixed edge length must be positive, got {zv}")
    w_table: dict[Edge, RationalFunction] = {}
    labeling: Labeling = {}
    for u, v in g.sorted_edges():
        w = coords[v] - coords[u]
        # W*Z is |W|^2 for real t, so a constant value is real
        val = _require_constant(
            w * w.conjugate_coeffs(), f"squared distance of edge ({u},{v})"
        )
        if val.re <= 0:
            raise MotionError(
                f"edge ({u},{v}) has squared length {val}, expected positive rational"
            )
        w_table[(u, v)] = w
        labeling[(u, v)] = val.re
    return w_table, labeling
