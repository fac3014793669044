import functools
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movability.canon import canonical_chunks, canonical_form
from movability.graphs import Graph, component_masks, encode_graph6, parse_graph6
from movability.smallgraphs import (
    _grow_layer,
    _least_key_filter,
    _least_of_each_orbit,
    connected_graphs_up_to,
)

import graph6_oracle
import smallgraphs_oracle
from conftest import adjacency_sets, connected_graphs, reachable


@pytest.mark.parametrize("max_n", range(1, 8))
def test_same_stream_as_the_oracle(max_n):
    got = [encode_graph6(g) for g in connected_graphs_up_to(max_n)]
    want = [encode_graph6(g) for g in smallgraphs_oracle.connected_graphs_up_to(max_n)]
    assert got == want


@functools.cache
def _generated_up_to_7() -> frozenset[str]:
    return frozenset(encode_graph6(g) for g in connected_graphs_up_to(7))


@settings(max_examples=200, deadline=None)
@given(connected_graphs(min_n=2, max_n=7), st.randoms(use_true_random=False))
def test_every_connected_graph_is_generated(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(g.relabel(perm)) in _generated_up_to_7()


def _keys_and_cut_vertices(g: Graph) -> tuple[list, set[int]]:
    deg = g.degrees()
    adj = adjacency_sets(g)
    keys = [(deg[v], sorted(deg[w] for w in adj[v])) for v in range(g.n)]
    # v is a cut vertex when the other vertices are not all reached from one of them
    cut = {
        v for v in range(g.n)
        if len(reachable([e for e in g.edges if v not in e], int(v == 0))) < g.n - 1
    }
    return keys, cut


# two triangles joined by a path through 3, 4, 5: vertex 4 alone has the
# least key, (2, [2, 2]), and it is a cut vertex
TRIANGLES_ON_A_PATH = Graph.of(
    9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (7, 8)]
)


def test_the_witness_has_a_cut_vertex_of_least_key():
    keys, cut = _keys_and_cut_vertices(TRIANGLES_ON_A_PATH)
    assert [v for v, key in enumerate(keys) if key == min(keys)] == [4]
    assert 4 in cut


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_n=2, max_n=9))
@example(TRIANGLES_ON_A_PATH)
def test_grown_from_the_graph_minus_its_least_key_non_cut_vertex(g):
    # the soundness argument of canonical augmentation, one graph at a time
    keys, cut = _keys_and_cut_vertices(g)
    m = min((v for v in range(g.n) if v not in cut), key=keys.__getitem__)
    parent = parse_graph6(canonical_form(g.induced_subgraph(v for v in range(g.n) if v != m)))
    generators = canonical_chunks(parent.masks())[1]
    _filter_agrees_with_the_oracle(parent, generators)
    layer = {encode_graph6(parent): (parent, generators)}
    assert canonical_form(g) in _grow_layer(layer, g.n)


def _filter_agrees_with_the_oracle(parent: Graph, generators: list[list[int]]) -> int:
    """Assert that the per-parent key filter and the reference filter agree
    on every subset generation tries for this parent; return how many."""
    masks = parent.masks()
    x = parent.n
    degrees = [m.bit_count() for m in masks]
    parts = [component_masks(masks, (1 << x) - 1 ^ 1 << v) for v in range(x)]
    keep = _least_key_filter(masks)
    subsets = list(_least_of_each_orbit(generators, x))
    assert [keep(s) for s in subsets] == [
        smallgraphs_oracle._new_vertex_has_least_key(masks, degrees, parts, s) for s in subsets
    ]
    return len(subsets)


def test_key_filter_agrees_with_the_oracle_up_to_8_vertices():
    layer = {"@": (Graph(1, frozenset()), [])}
    calls = 0
    for size in range(2, 9):
        calls += sum(_filter_agrees_with_the_oracle(g, generators) for g, generators in layer.values())
        if size < 8:
            layer = _grow_layer(layer, size)
    assert calls == 71_300


# vertex 0 joins one vertex of each of two K5s.  With x joined to 2, 7 and 8,
# vertex 0 alone has a smaller key than x, and it is a cut vertex of the
# parent that the subset makes non-cut; no parent with at most 8 vertices
# has a subset rejected by such a vertex alone
TWO_CLIQUES_ON_A_VERTEX = Graph.of(
    11, [(0, 1), (0, 6), *combinations(range(1, 6), 2), *combinations(range(6, 11), 2)]
)


def test_key_filter_rejects_through_a_cut_vertex():
    assert not _least_key_filter(TWO_CLIQUES_ON_A_VERTEX.masks())(1 << 2 | 1 << 7 | 1 << 8)
    assert _filter_agrees_with_the_oracle(TWO_CLIQUES_ON_A_VERTEX, []) == 2047


def test_generation_seeds_the_graph6_code():
    for g in connected_graphs_up_to(7):
        code = getattr(g, "_graph6")
        parsed = graph6_oracle.parse_graph6(code)
        assert parsed == g and not hasattr(parsed, "_graph6")
        assert encode_graph6(parsed) == code


def test_orbit_pruning_loses_no_code():
    layer = {"@": (Graph(1, frozenset()), [])}
    for size in range(2, 8):
        grown = _grow_layer(layer, size)
        unpruned = _grow_layer({code: (g, []) for code, (g, _) in layer.items()}, size)
        assert {code: g for code, (g, _) in grown.items()} == {
            code: g for code, (g, _) in unpruned.items()
        }
        layer = grown
