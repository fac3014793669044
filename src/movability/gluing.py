"""Combining movable subgraphs numerically: labeling merge with synced-path
evidence, as `movability construct glue` prints it.

Two proper flexible labelings on overlapping subgraphs merge into one when
their motions agree on the shared vertices and no outside vertex of one
piece rides on top of an outside vertex of the other.  Exact agreement is
replaced here by sampled evidence: paths observed at corresponding samples
must coincide on the overlap within a tolerance while every cross pair
separates somewhere.  The merged samples become a TrackedPath scored by
track.sampled_path, the same scorer as a tracked path.  The recipes below
glue S1, S2 and S3 this way.

No verdict or certificate reads this module: the catalog certificates of
S1-S4 are the exact axes motions of `constructions.axes_recipe`, in the same
vertex labels, and S1's K33 piece starts at its motion's t = 0 positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import S1_EDGES, S2_EDGES, S3_EDGES, AxesMotion, Triple, axes_recipe, grid_construction
from .graphs import Graph
from .motion import Labeling
from .nac import NacColoring
from .track import TrackedPath, labeling_residual, normalize_start, sampled_path, track_motion


class GlueError(ValueError):
    """Gluing preconditions failed (labeling clash or unsynced motions)."""


# a cross pair must separate by more than SEPARATION at some sample, and
# the pieces must share at least MIN_SAMPLES corresponding samples; a piece
# is tracked with step size PIECE_STEP_SIZE; pieces glue with residual and
# overlap tolerance GLUE_TOL
GLUE_TOL = 1e-7
SEPARATION = 1e-4
MIN_SAMPLES = 20
PIECE_STEP_SIZE = 0.02


@dataclass
class GluePiece:
    """One movable subgraph with its labeling and a sampled motion.

    Vertices and edges, the labeling's keys, carry the labels of the ambient
    graph; samples is a (k, n, 2) array of positions at successive parameter
    values shared with the partner piece, one row per ambient vertex (rows of
    vertices outside the piece are not read).
    """

    vertices: tuple[int, ...]
    labeling: Labeling
    samples: np.ndarray


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.hypot(*np.moveaxis(a - b, -1, 0))


def glue_labelings(
    g: Graph,
    piece1: GluePiece,
    piece2: GluePiece,
) -> tuple[Labeling, np.ndarray]:
    """Merge two proper flexible labelings whose motions are in sync.

    Checks, in order: the pieces cover the graph with a nonempty edge
    overlap; the labelings agree exactly on shared edges; both sample paths
    are finite on their own vertices and satisfy their labelings within
    GLUE_TOL; shared vertices coincide within GLUE_TOL at every
    corresponding sample; and for every v1 outside piece2 and v2 outside
    piece1 the sampled trajectories differ somewhere by more than
    SEPARATION.  Returns the merged labeling and samples; piece 1 wins on
    shared vertices.
    """
    v1, v2 = set(piece1.vertices), set(piece2.vertices)
    if v1 | v2 != set(range(g.n)):
        raise GlueError("pieces do not cover the vertex set")
    if piece1.labeling.keys() | piece2.labeling.keys() != g.edges:
        raise GlueError("pieces do not cover the edge set")
    shared_edges = piece1.labeling.keys() & piece2.labeling.keys()
    if not shared_edges:
        raise GlueError("pieces share no edge")
    for e in shared_edges:
        if piece1.labeling[e] != piece2.labeling[e]:
            raise GlueError(
                f"labelings disagree on shared edge {e}: "
                f"{piece1.labeling[e]} vs {piece2.labeling[e]}"
            )
    k = len(piece1.samples)
    if k != len(piece2.samples) or k < MIN_SAMPLES:
        raise GlueError(
            f"need at least {MIN_SAMPLES} corresponding samples, got {k} and {len(piece2.samples)}"
        )
    for k, piece in ((1, piece1), (2, piece2)):
        # NaN compares false, so it would pass every check below
        if not np.isfinite(piece.samples[:, list(piece.vertices)]).all():
            raise GlueError(f"piece {k} samples hold a non-finite coordinate")
        for sample in piece.samples:
            r = labeling_residual(piece.labeling, sample)
            if r > GLUE_TOL:
                raise GlueError(f"a piece sample violates its labeling by {r:.2e}")
    shared = sorted(v1 & v2)
    overlap_err = _distances(piece1.samples[:, shared], piece2.samples[:, shared]).max()
    if overlap_err > GLUE_TOL:
        raise GlueError(
            f"shared-subgraph configurations differ by {overlap_err:.2e} (> {GLUE_TOL:.0e})"
        )
    for a in sorted(v1 - v2):
        for b in sorted(v2 - v1):
            if _distances(piece1.samples[:, a], piece2.samples[:, b]).max() <= SEPARATION:
                raise GlueError(
                    f"projections of vertices {a} and {b} coincide along the samples"
                )
    labeling: Labeling = dict(piece1.labeling)
    labeling.update(piece2.labeling)
    samples = piece2.samples.copy()
    rows1 = list(piece1.vertices)
    samples[:, rows1] = piece1.samples[:, rows1]
    return labeling, samples


# -- shared helpers for the recipes ------------------------------------------


def _labeling_from_points(
    points: dict[int, tuple[Fraction, Fraction]], edges
) -> Labeling:
    return {
        (u, v): (points[u][0] - points[v][0]) ** 2 + (points[u][1] - points[v][1]) ** 2
        for u, v in edges
    }


def _tracked_piece(
    g: Graph,
    start_points: dict[int, tuple[Fraction, Fraction]],
    vertices: tuple[int, ...],
    fixed: tuple[int, int],
    *,
    steps: int,
) -> GluePiece:
    """The subgraph induced on `vertices`, labeled by the squared distances
    of its exact start and tracked from there; samples keep the labels of g."""
    edges = frozenset(e for e in g.edges if e[0] in vertices and e[1] in vertices)
    labeling = _labeling_from_points(start_points, edges)
    local = {v: i for i, v in enumerate(vertices)}
    local_lab = {
        (min(local[u], local[v]), max(local[u], local[v])): lam
        for (u, v), lam in labeling.items()
    }
    start_arr = np.array([[float(c) for c in start_points[v]] for v in vertices])
    path = track_motion(
        local_lab,
        start_arr,
        (local[fixed[0]], local[fixed[1]]),
        steps=steps,
        step_size=PIECE_STEP_SIZE,
        tol=1e-12,
    )
    samples = np.full((len(path.samples), g.n, 2), np.nan)
    samples[:, list(vertices)] = [s.coords for s in path.samples]
    return GluePiece(vertices, labeling, samples)


# -- S1: triangular-prism part (grid motion) + bipartite part (tracked) ------


def glued_s1(*, samples: int = 60) -> TrackedPath:
    """S1 = prism on {0..5} glued to K33 on {2..7} over the rhombus (2,3,4,5).

    The prism part carries the exact grid motion whose shared quadrilateral
    is a unit rhombus; the bipartite part is tracked numerically from the
    t = 0 positions of S1's axes motion, its two classes on the coordinate
    axes.  Samples are matched through the rhombus hinge angle.
    """
    g = Graph.of(8, S1_EDGES)
    prism_vertices = tuple(range(6))
    prism = g.induced_subgraph(prism_vertices)  # identity labels
    coloring = NacColoring(prism, frozenset({(0, 1), (2, 5), (3, 4)}))
    _, grid_lab, grid_motion = grid_construction(prism, coloring)

    start_points = dict(enumerate(axes_recipe("S1").positions_at_zero()))
    k_piece = _tracked_piece(g, start_points, (2, 3, 4, 5, 6, 7), (4, 5), steps=samples - 1)

    # grid side evaluated at the hinge parameter of each tracked sample and
    # moved into the common frame (vertex 4 at the origin, 5 on +x)
    prism_samples = np.full_like(k_piece.samples, np.nan)
    for k, sample in enumerate(k_piece.samples):
        hx, hy = sample[3].tolist()  # unit hinge: position of vertex 3
        c, sθ = -hx, -hy
        if abs(1 + c) < 1e-12:
            raise GlueError("hinge reached the straight configuration")
        u = sθ / (1 + c)
        prism_samples[k, :6] = normalize_start(grid_motion.realize_float(u), (4, 5))

    piece1 = GluePiece(prism_vertices, dict(grid_lab), prism_samples)
    return sampled_path(*glue_labelings(g, piece1, k_piece), (4, 5), (0, 7))


# -- S2 and S3: embedded seven-vertex part driven by a tracked K33 frame -----


def _embedded_glue(
    g: Graph,
    k_vertices: tuple[int, ...],
    start_points: dict[int, tuple[Fraction, Fraction]],
    omega: dict[int, Triple],
    frame_cycle: tuple[int, int, int, int],
    watched_pair: tuple[int, int],
    *,
    samples: int,
) -> TrackedPath:
    """Common driver: track the K33 piece, rebuild the embedded piece from
    its quadrilateral frame sample by sample, then glue.  The embedded piece
    is labeled by its exact start p(c0) + w1 f1 + w2 f2 + w3 f3, the frame
    taken from the K33 start."""
    emb_vertices = tuple(range(7))
    emb_edges = frozenset(e for e in g.edges if e[0] < 7 and e[1] < 7)
    c0, c1, c2, c3 = frame_cycle
    corners = [start_points[c] for c in frame_cycle]
    frame = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(corners, corners[1:])]
    emb_start = {
        v: tuple(corners[0][i] + sum(w * f[i] for w, f in zip(omega[v], frame)) for i in range(2))
        for v in emb_vertices
    }
    emb_lab = _labeling_from_points(emb_start, emb_edges)

    k_piece = _tracked_piece(g, start_points, k_vertices, (c0, c1), steps=samples - 1)
    pos = k_piece.samples
    base = pos[:, c0]
    f1, f2, f3 = pos[:, c1] - base, pos[:, c2] - pos[:, c1], pos[:, c3] - pos[:, c2]
    emb_samples = np.full_like(pos, np.nan)
    for v in emb_vertices:
        w1, w2, w3 = (float(x) for x in omega[v])
        emb_samples[:, v] = base + w1 * f1 + w2 * f2 + w3 * f3

    piece1 = GluePiece(emb_vertices, emb_lab, emb_samples)
    return sampled_path(*glue_labelings(g, piece1, k_piece), (c0, c1), watched_pair)


def glued_s2(*, samples: int = 60) -> TrackedPath:
    """S2: the seven-vertex embedded piece rides on the K33 over {0,1,2,3,4,7},
    whose start has the two classes on concentric orthogonal rectangles; the
    shared quadrilateral (0,1,2,4) stays a parallelogram along the motion."""
    omega: dict[int, Triple] = {
        0: (Fraction(0), Fraction(0), Fraction(0)),
        1: (Fraction(1), Fraction(0), Fraction(0)),
        2: (Fraction(1), Fraction(1), Fraction(0)),
        3: (Fraction(1), Fraction(1), Fraction(1)),
        4: (Fraction(0), Fraction(1), Fraction(0)),
        5: (Fraction(0), Fraction(1), Fraction(1)),
        6: (Fraction(-1), Fraction(0), Fraction(0)),
    }
    start_points = {
        0: (Fraction(1), Fraction(3)),
        1: (Fraction(0), Fraction(1)),
        2: (Fraction(3), Fraction(0)),
        3: (Fraction(4), Fraction(1)),
        4: (Fraction(4), Fraction(2)),
        7: (Fraction(1), Fraction(0)),
    }
    return _embedded_glue(
        Graph.of(8, S2_EDGES),
        (0, 1, 2, 3, 4, 7),
        start_points,
        omega,
        (0, 1, 2, 3),
        (5, 7),
        samples=samples,
    )


def glued_s3(*, samples: int = 60) -> TrackedPath:
    """S3: same pattern as S2 with the K33 on {0,2,3,4,5,7} and the frame
    quadrilateral (0,3,2,4)."""
    omega: dict[int, Triple] = {
        0: (Fraction(0), Fraction(0), Fraction(0)),
        3: (Fraction(1), Fraction(0), Fraction(0)),
        2: (Fraction(1), Fraction(1), Fraction(0)),
        4: (Fraction(1), Fraction(1), Fraction(1)),
        6: (Fraction(0), Fraction(0), Fraction(1)),
        5: (Fraction(1), Fraction(0), Fraction(1)),
        1: (Fraction(0), Fraction(0), Fraction(-1)),
    }
    start_points = {
        0: (Fraction(4), Fraction(1)),
        2: (Fraction(0), Fraction(1)),
        3: (Fraction(3), Fraction(0)),
        4: (Fraction(1), Fraction(3)),
        5: (Fraction(4), Fraction(2)),
        7: (Fraction(1), Fraction(0)),
    }
    return _embedded_glue(
        Graph.of(8, S3_EDGES),
        (0, 2, 3, 4, 5, 7),
        start_points,
        omega,
        (0, 3, 2, 4),
        (1, 7),
        samples=samples,
    )


def extended_s4() -> AxesMotion:
    """S4's exact axes motion: K33 on {0..5} plus the clique {3,4,6,7} riding
    rigidly on the edge (3,4).  Only perfbench/spans.py reads this name."""
    return axes_recipe("S4")
