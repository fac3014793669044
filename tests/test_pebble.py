import pytest

from movability.graphs import Graph
from movability.pebble import _henneberg_spans, has_spanning_laman, is_laman, spanning_laman_rank
from movability.smallgraphs import connected_graphs_up_to

import pebble_oracle
from conftest import random_connected_graph


def count_matroid_rank(g: Graph) -> int:
    """Independent oracle: greedy matroid rank via the subgraph counts.

    A set of edges is independent in the (2,3)-count matroid iff every
    vertex subset W spans at most 2|W|-3 of them; the greedy algorithm
    maximizes the independent set size because this is a matroid.
    """
    chosen: list = []

    def independent(edges) -> bool:
        verts = sorted({v for e in edges for v in e})
        for mask in range(1, 1 << len(verts)):
            W = {verts[i] for i in range(len(verts)) if mask >> i & 1}
            if len(W) < 2:
                continue
            inside = sum(1 for u, v in edges if u in W and v in W)
            if inside > 2 * len(W) - 3:
                return False
        return True

    for e in g.sorted_edges():
        if independent(chosen + [e]):
            chosen.append(e)
    return len(chosen)


def test_triangle_is_laman():
    k3 = Graph.of(3, [(0, 1), (1, 2), (0, 2)])
    assert spanning_laman_rank(k3) == 3 == 2 * 3 - 3
    assert is_laman(k3)


def test_path_has_no_spanning_laman():
    p3 = Graph.of(3, [(0, 1), (1, 2)])
    assert spanning_laman_rank(p3) == 2 < 3
    assert not is_laman(p3)


def test_k33_is_laman():
    k33 = Graph.of(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert spanning_laman_rank(k33) == 9 == count_matroid_rank(k33)
    assert is_laman(k33)


def test_double_banana_like_overcount():
    # two triangles sharing an edge plus one extra edge: rank stalls at 2n-3
    g = Graph.of(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    assert spanning_laman_rank(g) == 5 == count_matroid_rank(g)
    assert not is_laman(g)  # 6 edges > 5


def test_agrees_with_count_matroid_on_all_small_graphs():
    for g in connected_graphs_up_to(6):
        assert spanning_laman_rank(g) == count_matroid_rank(g)


def test_agrees_on_random_graphs(rng):
    for _ in range(40):
        g = random_connected_graph(rng, 6, extra_edges=rng.randint(0, 6))
        assert spanning_laman_rank(g) == count_matroid_rank(g)


def test_henneberg_sweep_restarts_once_from_the_lowest_unreached_vertex():
    # K33 is Laman, but from the edge 03, and again from the edge 13, no
    # vertex has two reached neighbours, so both sweeps stop and the game
    # finds the rank
    k33 = Graph.of(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert not _henneberg_spans(k33.masks())
    # a triangle with a tail grown by type-I steps is swept
    g = Graph.of(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (0, 4)])
    assert _henneberg_spans(g.masks())
    # from the edge 04 the sweep stalls at once; the restart from the edge
    # 12 grows K4 on 1-4, then 5 and 0
    k4 = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    restart = Graph.of(6, k4 + [(0, 4), (0, 5), (1, 5), (2, 5)])
    assert _henneberg_spans(restart.masks())
    assert spanning_laman_rank(restart) == 9 == pebble_oracle.spanning_laman_rank(restart)
    # an isolated vertex 0 gives the first sweep no edge, and the restart
    # from the edge 12 cannot reach it
    assert not _henneberg_spans(Graph.of(3, [(1, 2)]).masks())


def test_rejects_single_vertex():
    with pytest.raises(ValueError):
        spanning_laman_rank(Graph.of(1, []))


def test_disconnected_graphs_rank_adds_up():
    two_triangles = Graph.of(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert spanning_laman_rank(two_triangles) == 6 == count_matroid_rank(two_triangles)


def test_mask_game_matches_the_set_game_on_all_graphs_up_to_7():
    # the counts pin how many graphs the Henneberg sweep answers and how
    # many of the rest the game finds spanned, so both paths stay covered
    swept = played_spanned = 0
    for g in connected_graphs_up_to(7):
        rank = pebble_oracle.spanning_laman_rank(g)
        assert spanning_laman_rank(g) == rank, g
        assert has_spanning_laman(g) == (rank == 2 * g.n - 3), g
        if _henneberg_spans(g.masks()):
            swept += 1
        else:
            played_spanned += rank == 2 * g.n - 3
    assert (swept, played_spanned) == (416, 14)


def test_screens_keep_k2_and_reject_only_unspanned_graphs():
    assert has_spanning_laman(Graph.of(2, [(0, 1)]))  # n = 2 and degree 1, yet spanned
    assert not has_spanning_laman(Graph.of(2, []))
    assert not has_spanning_laman(Graph.of(1, []))
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    # 2n-3 = 7 edges, but vertex 4 hangs on one edge: the degree screen answers
    pendant = Graph.of(5, k4 + [(0, 4)])
    assert spanning_laman_rank(pendant) == 6 and not has_spanning_laman(pendant)
    # two K4s sharing a vertex pass both screens and the game answers
    bowtie = Graph.of(7, k4 + [(a + 3, b + 3) for a, b in k4])
    assert len(bowtie.edges) == 12 >= 2 * 7 - 3 and min(bowtie.degrees()) == 3
    assert spanning_laman_rank(bowtie) == 10 == pebble_oracle.spanning_laman_rank(bowtie)
    assert not has_spanning_laman(bowtie)
