"""Combining movable subgraphs: labeling merge with synced-path evidence.

Two proper flexible labelings on overlapping subgraphs merge into one when
their motions agree on the shared vertices and no outside vertex of one
piece rides on top of an outside vertex of the other.  Exact agreement is
replaced here by sampled evidence: paths observed at corresponding samples
must coincide on the overlap within a tolerance while every cross pair
separates somewhere.  The recipes below build the three 8-vertex graphs
that need this (S1, S2, S3) plus the rigid-extension construction for S4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import grid_construction
from .graphs import Edge, Graph
from .motion import Labeling
from .nac import NacColoring
from .track import TrackedPath, normalize_start, track_motion

Triple = tuple[Fraction, Fraction, Fraction]


class GlueError(ValueError):
    """Gluing preconditions failed (labeling clash or unsynced motions)."""


# a cross pair must separate by more than SEPARATION at some sample, and
# the pieces must share at least MIN_SAMPLES corresponding samples; a piece
# is tracked with step size PIECE_STEP_SIZE; pieces glue with residual and
# overlap tolerance GLUE_TOL, and a glued labeling is tracked with step size
# TRACK_STEP_SIZE and corrector tolerance TRACK_TOL
GLUE_TOL = 1e-7
SEPARATION = 1e-4
MIN_SAMPLES = 20
PIECE_STEP_SIZE = 0.02
TRACK_STEP_SIZE = 0.03
TRACK_TOL = 1e-10


@dataclass
class GluePiece:
    """One movable subgraph with its labeling and a sampled motion.

    Vertices and edges carry the labels of the ambient graph; samples list
    per-vertex positions (dict vertex -> (x, y)) at successive parameter
    values shared with the partner piece.
    """

    vertices: tuple[int, ...]
    edges: frozenset[Edge]
    labeling: Labeling
    samples: list[dict[int, tuple[float, float]]]


@dataclass
class GlueResult:
    labeling: Labeling
    merged_samples: list[dict[int, tuple[float, float]]]
    injectivity_margin: float
    shared_vertices: tuple[int, ...]
    max_overlap_error: float

    def distance_variation(self, u: int, v: int) -> float:
        d = [
            math.hypot(s[u][0] - s[v][0], s[u][1] - s[v][1])
            for s in self.merged_samples
        ]
        return max(d) - min(d)

    def max_labeling_residual(self) -> float:
        worst = 0.0
        for s in self.merged_samples:
            worst = max(worst, _labeling_residual(self.labeling, s))
        return worst


def _labeling_residual(labeling: Labeling, sample) -> float:
    """Largest deviation of a sample's squared edge lengths from the labeling."""
    worst = 0.0
    for (u, v), lam_sq in labeling.items():
        dx = sample[u][0] - sample[v][0]
        dy = sample[u][1] - sample[v][1]
        worst = max(worst, abs(dx * dx + dy * dy - float(lam_sq)))
    return worst


def glue_labelings(
    g: Graph,
    piece1: GluePiece,
    piece2: GluePiece,
) -> GlueResult:
    """Merge two proper flexible labelings whose motions are in sync.

    Checks, in order: the pieces cover the graph with a nonempty edge
    overlap; the labelings agree exactly on shared edges; both sample paths
    satisfy their labelings within GLUE_TOL; shared vertices coincide
    within GLUE_TOL at every corresponding sample; and for every v1 outside
    piece2 and v2 outside piece1 the sampled trajectories differ somewhere
    by more than SEPARATION.
    """
    v1, v2 = set(piece1.vertices), set(piece2.vertices)
    if v1 | v2 != set(range(g.n)):
        raise GlueError("pieces do not cover the vertex set")
    if piece1.edges | piece2.edges != g.edges:
        raise GlueError("pieces do not cover the edge set")
    for k, piece in ((1, piece1), (2, piece2)):
        if set(piece.labeling) != set(piece.edges):
            raise GlueError(f"piece {k} labeling does not match its edge set")
    shared_edges = piece1.edges & piece2.edges
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
    for piece in (piece1, piece2):
        for sample in piece.samples:
            r = _labeling_residual(piece.labeling, sample)
            if r > GLUE_TOL:
                raise GlueError(f"a piece sample violates its labeling by {r:.2e}")
    shared = tuple(sorted(v1 & v2))
    overlap_err = 0.0
    for s1, s2 in zip(piece1.samples, piece2.samples):
        for w in shared:
            err = math.hypot(s1[w][0] - s2[w][0], s1[w][1] - s2[w][1])
            overlap_err = max(overlap_err, err)
    if overlap_err > GLUE_TOL:
        raise GlueError(
            f"shared-subgraph configurations differ by {overlap_err:.2e} (> {GLUE_TOL:.0e})"
        )
    only1 = sorted(v1 - v2)
    only2 = sorted(v2 - v1)
    for a in only1:
        for b in only2:
            best = 0.0
            for s1, s2 in zip(piece1.samples, piece2.samples):
                best = max(
                    best, math.hypot(s1[a][0] - s2[b][0], s1[a][1] - s2[b][1])
                )
            if best <= SEPARATION:
                raise GlueError(
                    f"projections of vertices {a} and {b} coincide along the samples"
                )
    merged_labeling: Labeling = dict(piece1.labeling)
    merged_labeling.update(piece2.labeling)
    merged_samples = []
    margin = math.inf
    for s1, s2 in zip(piece1.samples, piece2.samples):
        merged = dict(s2)
        merged.update(s1)
        merged_samples.append(merged)
        pts = sorted(merged)
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                margin = min(
                    margin, math.hypot(merged[a][0] - merged[b][0], merged[a][1] - merged[b][1])
                )
    return GlueResult(
        labeling=merged_labeling,
        merged_samples=merged_samples,
        injectivity_margin=margin,
        shared_vertices=shared,
        max_overlap_error=overlap_err,
    )


# -- shared helpers for the recipes ------------------------------------------


def _to_frame(points: dict[int, tuple[float, float]], base: int, tip: int):
    """Rigidly move a realization so base sits at the origin, tip on +x."""
    keys = sorted(points)
    arr = np.array([points[v] for v in keys])
    idx = {v: i for i, v in enumerate(keys)}
    arr = normalize_start(arr, (idx[base], idx[tip]))
    return {v: (float(arr[idx[v]][0]), float(arr[idx[v]][1])) for v in keys}


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
    samples = [
        {v: (float(s.coords[local[v]][0]), float(s.coords[local[v]][1])) for v in vertices}
        for s in path.samples
    ]
    return GluePiece(vertices, edges, labeling, samples)


@dataclass
class GluedConstruction:
    """A labeling combined from movable pieces plus everything needed to
    re-verify it.

    Glued recipes (S1-S3) carry the merge result, which holds their
    labeling; the rigid extension (S4) has none, is evidenced by tracking
    alone and holds its labeling in extension_labeling.
    """

    graph: Graph
    start: np.ndarray  # realization, row per vertex (generic sample)
    watched_pair: tuple[int, int]
    result: GlueResult | None = None
    extension_labeling: Labeling | None = None

    @property
    def labeling(self) -> Labeling:
        return self.extension_labeling if self.result is None else self.result.labeling

    def track(self, *, steps: int = 120) -> TrackedPath:
        # symmetric configurations (axes starts) carry extra infinitesimal
        # flexes, so the stored start is a generic sample of the motion
        return track_motion(
            self.labeling,
            self.start,
            min(self.graph.edges),
            steps=steps,
            step_size=TRACK_STEP_SIZE,
            tol=TRACK_TOL,
            watched_pair=self.watched_pair,
        )

    def path_stats(self) -> dict:
        """Numeric evidence for the labeling: the merged glue samples for
        S1-S3 (tolerance GLUE_TOL), a path tracked over 110 steps for S4 (1e-9)."""
        if self.result is not None:
            return {
                "samples": len(self.result.merged_samples),
                "max_residual": self.result.max_labeling_residual(),
                "tol": GLUE_TOL,
                "injectivity_margin": self.result.injectivity_margin,
                "watched_variation": self.result.distance_variation(*self.watched_pair),
            }
        path = self.track(steps=110)
        return {
            "samples": len(path.samples),
            "max_residual": max(s.residual for s in path.samples),
            "tol": 1e-9,
            "injectivity_margin": path.injectivity_margin,
            "watched_variation": path.watched_variation,
        }


def _glue(
    g: Graph, piece1: GluePiece, piece2: GluePiece, *, watched_pair: tuple[int, int]
) -> GluedConstruction:
    """Glue the two pieces and start tracking from the middle sample."""
    result = glue_labelings(g, piece1, piece2)
    generic = result.merged_samples[len(result.merged_samples) // 2]
    start = np.array([generic[v] for v in range(8)])
    return GluedConstruction(g, start, watched_pair, result)


# -- S1: triangular-prism part (grid motion) + bipartite part (tracked) ------

S1_EDGES: tuple[Edge, ...] = (
    (0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (2, 5),
    (2, 7), (3, 4), (3, 6), (4, 5), (4, 7), (5, 6), (6, 7),
)


def s1_graph() -> Graph:
    return Graph.of(8, S1_EDGES)


def glued_s1(*, samples: int = 60) -> GluedConstruction:
    """S1 = prism on {0..5} glued to K33 on {2..7} over the rhombus (2,3,4,5).

    The prism part carries the exact grid motion whose shared quadrilateral
    is a unit rhombus; the bipartite part is tracked numerically from a
    start with the two classes on the coordinate axes, Pythagorean
    parameters keeping every squared length rational.  Samples are matched
    through the rhombus hinge angle.
    """
    g = s1_graph()
    prism_vertices = tuple(range(6))
    prism_edges = frozenset(e for e in g.edges if e[0] < 6 and e[1] < 6)
    prism = g.induced_subgraph(prism_vertices)  # identity labels
    coloring = NacColoring(prism, frozenset({(0, 1), (2, 5), (3, 4)}))
    _, grid_lab, grid_motion = grid_construction(prism, coloring)

    start_points: dict[int, tuple[Fraction, Fraction]] = {
        2: (Fraction(0), Fraction(-4, 5)),
        4: (Fraction(0), Fraction(4, 5)),
        6: (Fraction(0), Fraction(-6, 5)),
        3: (Fraction(-3, 5), Fraction(0)),
        5: (Fraction(3, 5), Fraction(0)),
        7: (Fraction(6, 5), Fraction(0)),
    }
    k_piece = _tracked_piece(g, start_points, (2, 3, 4, 5, 6, 7), (4, 5), steps=samples - 1)

    # grid side evaluated at the hinge parameter of each tracked sample and
    # moved into the common frame (vertex 4 at the origin, 5 on +x)
    prism_samples = []
    for sample in k_piece.samples:
        hx, hy = sample[3]  # unit hinge: position of vertex 3
        c, sθ = -hx, -hy
        if abs(1 + c) < 1e-12:
            raise GlueError("hinge reached the straight configuration")
        u = sθ / (1 + c)
        pts = grid_motion.realize_float(u)
        prism_samples.append(_to_frame({v: tuple(pts[v]) for v in prism_vertices}, 4, 5))

    piece1 = GluePiece(prism_vertices, prism_edges, dict(grid_lab), prism_samples)
    return _glue(g, piece1, k_piece, watched_pair=(0, 7))


# -- S2 and S3: embedded seven-vertex part driven by a tracked K33 frame -----

S2_EDGES: tuple[Edge, ...] = (
    (0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (1, 6), (1, 7),
    (2, 3), (2, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6),
)

S3_EDGES: tuple[Edge, ...] = (
    (0, 1), (0, 3), (0, 4), (0, 6), (0, 7), (1, 2), (1, 6),
    (2, 3), (2, 4), (2, 7), (3, 5), (4, 5), (5, 6), (5, 7),
)


def s2_graph() -> Graph:
    return Graph.of(8, S2_EDGES)


def s3_graph() -> Graph:
    return Graph.of(8, S3_EDGES)


def _embedded_glue(
    g: Graph,
    k_vertices: tuple[int, ...],
    start_points: dict[int, tuple[Fraction, Fraction]],
    omega: dict[int, Triple],
    frame_cycle: tuple[int, int, int, int],
    watched_pair: tuple[int, int],
    *,
    samples: int,
) -> GluedConstruction:
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
    emb_samples = []
    for pos in k_piece.samples:
        base = np.array(pos[c0])
        f1 = np.array(pos[c1]) - base
        f2 = np.array(pos[c2]) - np.array(pos[c1])
        f3 = np.array(pos[c3]) - np.array(pos[c2])
        emb_pos = {}
        for v in emb_vertices:
            w1, w2, w3 = (float(x) for x in omega[v])
            pt = base + w1 * f1 + w2 * f2 + w3 * f3
            emb_pos[v] = (float(pt[0]), float(pt[1]))
        emb_samples.append(emb_pos)

    piece1 = GluePiece(emb_vertices, emb_edges, emb_lab, emb_samples)
    return _glue(g, piece1, k_piece, watched_pair=watched_pair)


def glued_s2(*, samples: int = 60) -> GluedConstruction:
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
        s2_graph(),
        (0, 1, 2, 3, 4, 7),
        start_points,
        omega,
        (0, 1, 2, 3),
        (5, 7),
        samples=samples,
    )


def glued_s3(*, samples: int = 60) -> GluedConstruction:
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
        s3_graph(),
        (0, 2, 3, 4, 5, 7),
        start_points,
        omega,
        (0, 3, 2, 4),
        (1, 7),
        samples=samples,
    )


# -- S4: bipartite part extended by a rigidly attached K4 --------------------

S4_EDGES: tuple[Edge, ...] = (
    (0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (2, 5),
    (3, 4), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (6, 7),
)


def s4_graph() -> Graph:
    return Graph.of(8, S4_EDGES)


def extended_s4() -> GluedConstruction:
    """S4 = K33 on {0..5} plus the clique {3,4,6,7} riding rigidly on the
    edge (3,4); the axes motion of the bipartite part carries the clique
    along, so the start's exact squared distances give the labeling."""
    g = s4_graph()
    points: dict[int, tuple[Fraction, Fraction]] = {
        0: (Fraction(0), Fraction(1)),
        2: (Fraction(0), Fraction(-5, 4)),
        4: (Fraction(0), Fraction(3, 2)),
        1: (Fraction(-1), Fraction(0)),
        3: (Fraction(5, 4), Fraction(0)),
        5: (Fraction(-3, 2), Fraction(0)),
        6: (Fraction(1), Fraction(1)),
        7: (Fraction(2), Fraction(1)),
    }
    labeling = _labeling_from_points(points, g.sorted_edges())
    # the axes configuration itself is infinitesimally too flexible to seed
    # the tracker; walk the bipartite part to a generic nearby sample and
    # carry the clique rigidly on the (3,4) frame
    nudge = _tracked_piece(g, points, tuple(range(6)), (3, 4), steps=12)
    generic = np.array([nudge.samples[-1][v] for v in range(6)])
    old_a, old_b = np.array([float(c) for c in points[3]]), np.array(
        [float(c) for c in points[4]]
    )
    new_a, new_b = generic[3], generic[4]
    du = (old_b - old_a) / np.linalg.norm(old_b - old_a)
    dv = (new_b - new_a) / np.linalg.norm(new_b - new_a)
    rot = np.array(
        [
            [du[0] * dv[0] + du[1] * dv[1], -(du[0] * dv[1] - du[1] * dv[0])],
            [du[0] * dv[1] - du[1] * dv[0], du[0] * dv[0] + du[1] * dv[1]],
        ]
    )
    start = np.zeros((8, 2))
    start[:6] = generic
    for v in (6, 7):
        offset = np.array([float(c) for c in points[v]]) - old_a
        start[v] = new_a + rot @ offset
    return GluedConstruction(g, start, watched_pair=(5, 6), extension_labeling=labeling)
