import math
from fractions import Fraction

import numpy as np
import pytest

from movability import gluing
from movability.canon import are_isomorphic
from movability.catalog import catalog_graph
from movability.constructions import S1_EDGES, axes_recipe
from movability.gluing import (
    GlueError,
    GluePiece,
    glue_labelings,
    glued_s1,
    glued_s2,
    glued_s3,
)
from movability.graphs import Graph
from movability.track import TrackerError, labeling_residual, track_motion

from conftest import watched_variation


@pytest.fixture(scope="module")
def s1():
    return glued_s1(samples=40)


def test_s1_glue_succeeds(s1):
    assert s1.injectivity_margin > 0.2
    assert set(s1.labeling) == set(S1_EDGES)
    # the rhombus has unit sides
    for e in ((2, 3), (2, 5), (3, 4), (4, 5)):
        assert s1.labeling[e] == Fraction(1)
    # every edge, the K33 edges of the shared rhombus included
    assert max(s.residual for s in s1.samples) < 1e-9


def test_s1_watched_distance_varies(s1):
    assert s1.watched_pair == (0, 7)
    assert watched_variation(s1) > 1e-3


@pytest.mark.parametrize("recipe", [glued_s1, glued_s2, glued_s3])
def test_glued_scores_match_pairwise_formulas(recipe):
    # oracle: the merged-sample scoring gluing did before its samples
    # became a TrackedPath scored by track
    glued = recipe(samples=60)
    a, b = glued.watched_pair
    margin, watched, residual = math.inf, [], 0.0
    for sample in glued.samples:
        s = sample.coords.tolist()
        for u in range(len(s)):
            for v in range(u + 1, len(s)):
                margin = min(margin, math.hypot(s[u][0] - s[v][0], s[u][1] - s[v][1]))
        watched.append(math.hypot(s[a][0] - s[b][0], s[a][1] - s[b][1]))
        for (u, v), lam_sq in glued.labeling.items():
            dx, dy = s[u][0] - s[v][0], s[u][1] - s[v][1]
            residual = max(residual, abs(dx * dx + dy * dy - float(lam_sq)))
    assert len(glued.samples) == 60
    assert glued.injectivity_margin == margin
    assert watched_variation(glued) == max(watched) - min(watched)
    assert abs(max(s.residual for s in glued.samples) - residual) <= 1e-12


def track_from_the_middle(glued, *, steps):
    # the glued samples are generic, unlike the axes starts of the pieces
    start = glued.samples[len(glued.samples) // 2].coords
    return track_motion(
        glued.labeling, start, min(glued.labeling), steps=steps, step_size=0.03,
        watched_pair=glued.watched_pair,
    )


def test_s2_s3_glue_and_track():
    for recipe, name in ((glued_s2, "S2"), (glued_s3, "S3")):
        glued = recipe(samples=30)
        assert are_isomorphic(Graph.of(8, glued.labeling), catalog_graph(name))
        assert glued.injectivity_margin > 0.5
        path = track_from_the_middle(glued, steps=40)
        assert len(path.samples) == 41
        assert path.injectivity_margin > 0.5
        assert watched_variation(path) > 1e-4


def test_embedded_piece_labeling_matches_direction_classes(monkeypatch):
    # the S2/S3 embedded piece is labeled by its exact start; the oracle is
    # the direction-class formula: an edge with omega difference
    # d = c * DIRECTIONS[k] moves as c times frame vector k
    from movability import gluing
    from movability.constructions import DIRECTIONS
    from two_nac_oracle import direction_class

    calls = []
    original = gluing._embedded_glue

    def spy(g, k_vertices, start_points, omega, frame_cycle, *args, **kwargs):
        calls.append((start_points, omega, frame_cycle))
        return original(g, k_vertices, start_points, omega, frame_cycle, *args, **kwargs)

    monkeypatch.setattr(gluing, "_embedded_glue", spy)
    for recipe in (glued_s2, glued_s3):
        labeling = recipe(samples=20).labeling
        start_points, omega, (c0, c1, c2, c3) = calls.pop()

        def sq(a, b):
            (xa, ya), (xb, yb) = start_points[a], start_points[b]
            return (xa - xb) ** 2 + (ya - yb) ** 2

        norms = [sq(c0, c1), sq(c1, c2), sq(c2, c3), sq(c0, c3)]
        emb_edges = [(u, v) for u, v in labeling if u in omega and v in omega]
        assert len(emb_edges) >= 7
        for u, v in emb_edges:
            d = tuple(a - b for a, b in zip(omega[u], omega[v]))
            k = direction_class(d)
            assert labeling[(u, v)] == (sum(d) / sum(DIRECTIONS[k])) ** 2 * norms[k]


def test_glue_rejects_disagreeing_labelings(s1):
    g = Graph.of(8, S1_EDGES)
    piece_vertices = tuple(range(6))
    piece_edges = frozenset(e for e in g.edges if max(e) < 6)
    lab1 = {e: s1.labeling[e] for e in piece_edges}
    k_vertices = (2, 3, 4, 5, 6, 7)
    k_edges = frozenset(e for e in g.edges if min(e) >= 2)
    lab2 = {e: s1.labeling[e] for e in k_edges}
    lab2[(2, 3)] = lab2[(2, 3)] + 1  # clash on a shared edge
    p1 = GluePiece(piece_vertices, lab1, np.zeros((25, 8, 2)))
    p2 = GluePiece(k_vertices, lab2, np.zeros((25, 8, 2)))
    with pytest.raises(GlueError, match="disagree"):
        glue_labelings(g, p1, p2)


def test_glue_rejects_unsynced_paths(s1):
    g = Graph.of(8, S1_EDGES)
    piece_edges = frozenset(e for e in g.edges if max(e) < 6)
    k_edges = frozenset(e for e in g.edges if min(e) >= 2)
    lab1 = {e: s1.labeling[e] for e in piece_edges}
    lab2 = {e: s1.labeling[e] for e in k_edges}
    samples1 = np.array([s.coords for s in s1.samples])
    samples2 = samples1.copy()
    samples2[:, 3, 0] += 0.5
    p1 = GluePiece(tuple(range(6)), lab1, samples1)
    p2 = GluePiece((2, 3, 4, 5, 6, 7), lab2, samples2)
    with pytest.raises(GlueError):
        glue_labelings(g, p1, p2)


def test_glue_rejects_coinciding_cross_pair(s1):
    g = Graph.of(8, S1_EDGES)
    piece_edges = frozenset(e for e in g.edges if max(e) < 6)
    k_edges = frozenset(e for e in g.edges if min(e) >= 2)
    lab1 = {e: s1.labeling[e] for e in piece_edges}
    lab2 = {e: s1.labeling[e] for e in k_edges}
    samples1 = np.array([s.coords for s in s1.samples])
    # vertex 7 copies the trajectory of vertex 0: condition 2 must fire
    samples2 = samples1.copy()
    samples2[:, 7] = samples2[:, 0]
    p1 = GluePiece(tuple(range(6)), lab1, samples1)
    p2 = GluePiece((2, 3, 4, 5, 6, 7), lab2, samples2)
    with pytest.raises(GlueError, match="coincide|violates"):
        glue_labelings(g, p1, p2)


@pytest.fixture(scope="module")
def s1_pieces():
    """The graph and the two pieces glued_s1 hands to glue_labelings."""
    captured = []

    def capture(g, piece1, piece2):
        captured.append((g, piece1, piece2))
        return glue_labelings(g, piece1, piece2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gluing, "glue_labelings", capture)
        glued_s1(samples=25)
    return captured[0]


@pytest.mark.parametrize("piece, vertex", [(1, 3), (2, 7)], ids=["shared-vertex", "own-vertex"])
def test_glue_rejects_non_finite_samples(s1_pieces, piece, vertex):
    # NaN compares false against every tolerance, so only an explicit
    # finiteness check on the piece's own vertices catches it
    g, p1, p2 = s1_pieces
    pieces = [p1, p2]
    bad = pieces[piece - 1]
    assert vertex in bad.vertices
    samples = bad.samples.copy()
    samples[5, vertex] = np.nan
    pieces[piece - 1] = GluePiece(bad.vertices, bad.labeling, samples)
    glue_labelings(g, p1, p2)  # the captured pieces glue as they are
    with pytest.raises(GlueError, match=f"piece {piece} samples hold a non-finite"):
        glue_labelings(g, *pieces)


def test_glue_needs_shared_edges(s1):
    g = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
    lab = {e: Fraction(1) for e in g.edges}
    p1 = GluePiece((0, 1), {(0, 1): Fraction(1)}, np.zeros((25, 4, 2)))
    p2 = GluePiece((1, 2, 3), {(1, 2): Fraction(1), (2, 3): Fraction(1)}, np.zeros((25, 4, 2)))
    with pytest.raises(GlueError, match="share no edge"):
        glue_labelings(g, p1, p2)


# -- the exact axes motions of S1-S4, with the tracker as oracle ----------------


def test_axes_recipes_keep_the_s1_and_s4_labelings():
    assert axes_recipe("S1").labeling() == glued_s1(samples=20).labeling
    # S4's labeling is pinned by its t = 0 points, the clique at (1, 1) and (2, 1)
    F = Fraction
    assert axes_recipe("S4").positions_at_zero() == [
        (F(0), F(1)), (F(-1), F(0)), (F(0), F(-5, 4)), (F(5, 4), F(0)),
        (F(0), F(3, 2)), (F(-3, 2), F(0)), (F(1), F(1)), (F(2), F(1)),
    ]


def _start(axes):
    # not t = 0: the axes configuration carries extra infinitesimal flexes
    return axes.realize_float(float(axes.parameter_bound()) / 2)


@pytest.mark.parametrize("name", ["S2", "S3", "S4"])
def test_tracker_follows_the_axes_labeling(name):
    axes = axes_recipe(name)
    path = track_motion(axes.labeling(), _start(axes), min(axes.graph.edges), steps=50)
    assert len(path.samples) == 51
    assert max(s.residual for s in path.samples) <= 1e-9
    assert path.injectivity_margin > 0.1
    assert watched_variation(path) > 0


def test_s1_axes_core_tracks_and_carries_the_extension():
    # the triangles (0,4,5) and (1,2,3) are collinear for every t, which
    # leaves S1 one infinitesimal flex too many anywhere on the motion: the
    # tracker refuses S1 itself (as it refuses the glued S1 path) and follows
    # the K33 core, whose samples the extension must complete exactly
    axes = axes_recipe("S1")
    labeling, start = axes.labeling(), _start(axes)
    with pytest.raises(TrackerError, match="tangent space dimension exceeds one"):
        track_motion(labeling, start, (2, 3), steps=50)
    core = sorted(axes.x_params.keys() | axes.y_params.keys())
    local = {v: i for i, v in enumerate(core)}
    core_labeling = {
        (local[u], local[v]): lam for (u, v), lam in labeling.items() if u in local and v in local
    }
    path = track_motion(core_labeling, [start[v] for v in core], (0, 1), steps=50)
    assert max(s.residual for s in path.samples) <= 1e-9
    for sample in path.samples:
        p = np.zeros((8, 2))
        for v in core:
            p[v] = sample.coords[local[v]]
        for v, combination in axes.extension.items():
            for w, (a, b) in combination.items():
                p[v] += float(a) * p[w] + float(b) * np.array([-p[w][1], p[w][0]])
        assert labeling_residual(labeling, p) <= 1e-9
