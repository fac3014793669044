from fractions import Fraction

import pytest

from movability.canon import are_isomorphic
from movability.catalog import catalog_graph
from movability.gluing import (
    GlueError,
    GluePiece,
    extended_s4,
    glue_labelings,
    glued_s1,
    glued_s2,
    glued_s3,
    s1_graph,
)
from movability.graphs import Graph


@pytest.fixture(scope="module")
def s1():
    return glued_s1(samples=40)


def test_s1_glue_succeeds(s1):
    result = s1.result
    assert result.injectivity_margin > 0.2
    assert result.max_overlap_error < 1e-9
    assert result.shared_vertices == (2, 3, 4, 5)
    assert set(result.labeling) == set(s1_graph().edges)
    # the rhombus has unit sides
    for e in ((2, 3), (2, 5), (3, 4), (4, 5)):
        assert result.labeling[e] == Fraction(1)
    assert result.max_labeling_residual() < 1e-9


def test_s1_watched_distance_varies(s1):
    assert s1.result.distance_variation(*s1.watched_pair) > 1e-3


def test_s1_path_stats(s1):
    stats = s1.path_stats()
    assert list(stats) == [
        "samples", "max_residual", "tol", "injectivity_margin", "watched_variation"
    ]
    assert stats["tol"] == 1e-7
    assert stats["samples"] == 40
    assert stats["max_residual"] <= stats["tol"]
    assert stats["injectivity_margin"] == s1.result.injectivity_margin
    assert stats["watched_variation"] == s1.result.distance_variation(*s1.watched_pair)


def test_s2_s3_glue_and_track():
    for recipe, name in ((glued_s2, "S2"), (glued_s3, "S3")):
        construction = recipe(samples=30)
        assert are_isomorphic(construction.graph, catalog_graph(name))
        result = construction.result
        assert result.injectivity_margin > 0.5
        assert result.max_overlap_error < 1e-9
        path = construction.track(steps=40)
        assert len(path.samples) == 41
        assert path.injectivity_margin > 0.5
        assert path.watched_variation > 1e-4


def test_embedded_piece_labeling_matches_direction_classes(monkeypatch):
    # the S2/S3 embedded piece is labeled by its exact start; the oracle is
    # the direction-class formula: an edge with omega difference
    # d = c * DIRECTIONS[k] moves as c times frame vector k
    from movability import gluing
    from movability.constructions import DIRECTIONS, direction_class

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


def test_s4_extension_tracks():
    construction = extended_s4()
    assert are_isomorphic(construction.graph, catalog_graph("S4"))
    path = construction.track(steps=40)
    assert path.injectivity_margin > 0.1
    assert path.watched_variation > 1e-4


def test_glue_rejects_disagreeing_labelings(s1):
    g = s1.graph
    result = s1.result
    piece_vertices = tuple(range(6))
    piece_edges = frozenset(e for e in g.edges if max(e) < 6)
    lab1 = {e: result.labeling[e] for e in piece_edges}
    k_vertices = (2, 3, 4, 5, 6, 7)
    k_edges = frozenset(e for e in g.edges if min(e) >= 2)
    lab2 = {e: result.labeling[e] for e in k_edges}
    lab2[(2, 3)] = lab2[(2, 3)] + 1  # clash on a shared edge
    p1 = GluePiece(piece_vertices, piece_edges, lab1, [dict() for _ in range(25)])
    p2 = GluePiece(k_vertices, k_edges, lab2, [dict() for _ in range(25)])
    with pytest.raises(GlueError, match="disagree"):
        glue_labelings(g, p1, p2)


def test_glue_rejects_unsynced_paths(s1):
    g = s1.graph
    result = s1.result
    piece_edges = frozenset(e for e in g.edges if max(e) < 6)
    k_edges = frozenset(e for e in g.edges if min(e) >= 2)
    lab1 = {e: result.labeling[e] for e in piece_edges}
    lab2 = {e: result.labeling[e] for e in k_edges}
    samples1 = [
        {v: s[v] for v in range(6)} for s in result.merged_samples
    ]
    samples2 = [
        {v: ((s[v][0] + 0.5) if v == 3 else s[v][0], s[v][1]) for v in range(2, 8)}
        for s in result.merged_samples
    ]
    p1 = GluePiece(tuple(range(6)), piece_edges, lab1, samples1)
    p2 = GluePiece((2, 3, 4, 5, 6, 7), k_edges, lab2, samples2)
    with pytest.raises(GlueError):
        glue_labelings(g, p1, p2)


def test_glue_rejects_coinciding_cross_pair(s1):
    g = s1.graph
    result = s1.result
    piece_edges = frozenset(e for e in g.edges if max(e) < 6)
    k_edges = frozenset(e for e in g.edges if min(e) >= 2)
    lab1 = {e: result.labeling[e] for e in piece_edges}
    lab2 = {e: result.labeling[e] for e in k_edges}
    samples1 = [{v: s[v] for v in range(6)} for s in result.merged_samples]
    # vertex 7 copies the trajectory of vertex 0: condition 2 must fire
    samples2 = [
        {v: (s[v] if v != 7 else s[0]) for v in range(2, 8)}
        for s in result.merged_samples
    ]
    p1 = GluePiece(tuple(range(6)), piece_edges, lab1, samples1)
    p2 = GluePiece((2, 3, 4, 5, 6, 7), k_edges, lab2, samples2)
    with pytest.raises(GlueError, match="coincide|violates"):
        glue_labelings(g, p1, p2)


def test_glue_needs_shared_edges(s1):
    g = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
    lab = {e: Fraction(1) for e in g.edges}
    p1 = GluePiece((0, 1), frozenset({(0, 1)}), {(0, 1): Fraction(1)}, [dict()] * 25)
    p2 = GluePiece(
        (1, 2, 3),
        frozenset({(1, 2), (2, 3)}),
        {(1, 2): Fraction(1), (2, 3): Fraction(1)},
        [dict()] * 25,
    )
    with pytest.raises(GlueError, match="share no edge"):
        glue_labelings(g, p1, p2)
