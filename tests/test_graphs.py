import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movability.graphs import (
    Graph,
    Graph6Error,
    ReductionCollapse,
    _graph_of_masks,
    bits,
    component_masks,
    component_of,
    edge,
    encode_graph6,
    graph_from_json,
    parse_graph6,
    reduce_degree_two,
)
from movability.smallgraphs import connected_graphs_up_to

import graph6_oracle
from conftest import adjacency_sets, random_connected_graph, reachable


def graph_to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.sorted_edges()]})


def reference_graph6(g: Graph) -> str:
    """Independent encoder used as the oracle: builds the bit string by hand."""
    assert g.n <= 62
    bits = ""
    for v in range(1, g.n):
        for u in range(v):
            bits += "1" if (u, v) in g.edges else "0"
    bits += "0" * (-len(bits) % 6)
    out = chr(63 + g.n)
    for k in range(0, len(bits), 6):
        out += chr(63 + int(bits[k : k + 6] or "0", 2))
    return out


def test_k2_encodes_as_A_underscore():
    assert reference_graph6(Graph.of(2, [(0, 1)])) == "A_"
    assert encode_graph6(Graph.of(2, [(0, 1)])) == "A_"
    assert parse_graph6("A_") == Graph.of(2, [(0, 1)])


def test_empty_three_vertex_graph():
    assert reference_graph6(Graph.of(3, [])) == "B?"
    assert encode_graph6(Graph.of(3, [])) == "B?"
    assert parse_graph6("B?") == Graph.of(3, [])


def test_single_vertex():
    assert parse_graph6("@") == Graph.of(1, [])
    assert encode_graph6(Graph.of(1, [])) == "@"


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.of(n, [e for e, keep in zip(pairs, mask) if keep])


@given(graphs())
@settings(max_examples=200)
def test_graph6_round_trip(g):
    assert parse_graph6(encode_graph6(g)) == g
    assert encode_graph6(g) == reference_graph6(g)


def test_parse_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error, match="empty graph6 string"):
        parse_graph6(">>graph6<<")  # a header and nothing after it
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # long form unsupported
    with pytest.raises(Graph6Error):
        parse_graph6("D")  # truncated bit stream
    with pytest.raises(Graph6Error):
        parse_graph6("Cl?")  # trailing bytes
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(64))  # dirty padding for n=2
    with pytest.raises(Graph6Error):
        parse_graph6("\x1f??")  # header below the alphabet


@pytest.mark.parametrize(
    "text",
    ["", ">>graph6<<", "~??", "D", "Cl?", "A" + chr(64), "\x1f??", "C\x7f", "B" + chr(62),
     ">>graph6<<C]", " Cl\n", "@", "A_", "}" + "~" * 315 + "_", "}" + "?" * 316],
)
def test_parse_matches_the_pairwise_parse(text):
    try:
        want = graph6_oracle.parse_graph6(text)
    except Graph6Error as exc:
        with pytest.raises(Graph6Error) as got:
            parse_graph6(text)
        assert str(got.value) == str(exc)
    else:
        g = parse_graph6(text)
        assert g == want and g.masks() == want.masks()


def test_encode_rejects_large_graphs():
    with pytest.raises(Graph6Error):
        encode_graph6(Graph.of(63, []))


def test_json_round_trip(rng):
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 9))
        assert graph_from_json(graph_to_json(g)) == g


def test_predicates():
    k4 = Graph.of(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert k4.is_complete()
    assert not Graph.of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]).is_complete()
    assert Graph.of(3, [(0, 1), (1, 2)]).is_connected()
    assert not Graph.of(3, [(0, 1)]).is_connected()
    ok, parts = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).is_bipartite()
    assert ok and {frozenset(p) for p in parts} == {frozenset({0, 2}), frozenset({1, 3})}
    ok, _ = Graph.of(3, [(0, 1), (1, 2), (0, 2)]).is_bipartite()
    assert not ok


@given(graphs())
@settings(max_examples=200)
def test_non_edges_are_the_sorted_pairs_outside_the_edge_set(g):
    assert g.non_edges() == [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.edges
    ]


def test_non_edges_of_empty_and_complete_graphs():
    assert Graph.of(0, []).non_edges() == Graph.of(1, []).non_edges() == []
    assert Graph.of(3, []).non_edges() == [(0, 1), (0, 2), (1, 2)]
    assert Graph.of(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]).non_edges() == []


def test_masks_are_cached_and_ignored_by_equality():
    g = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
    masks = g.masks()
    assert masks == (0b10, 0b101, 0b1010, 0b100)
    assert g.masks() is masks
    twin = Graph.of(4, [(2, 3), (0, 1), (1, 2)])
    assert twin == g and hash(twin) == hash(g) and "masks" not in repr(g)
    assert g.relabel([3, 2, 1, 0]).masks() == (0b10, 0b101, 0b1010, 0b100)


def _masks_of_edges(g: Graph) -> tuple[int, ...]:
    return tuple(sum(1 << w for w in nbrs) for nbrs in adjacency_sets(g))


@given(graphs(), st.data())
@settings(max_examples=200)
def test_masks_are_those_of_the_edges_however_the_graph_is_built(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    keep = data.draw(st.sets(st.integers(0, g.n - 1)))
    extra = data.draw(st.lists(st.sampled_from(g.non_edges()))) if g.non_edges() else []
    built = [g, Graph.of(g.n, list(g.edges)), parse_graph6(encode_graph6(g)),
             g.with_edges(extra), g.induced_subgraph(keep), g.relabel(perm)]
    for h in built:
        assert h.masks() == _masks_of_edges(h), h


def test_generated_graphs_have_the_masks_of_their_edges():
    graphs_up_to_6 = list(connected_graphs_up_to(6))
    assert len(graphs_up_to_6) == 1 + 2 + 6 + 21 + 112
    for g in graphs_up_to_6:
        assert g.masks() == _masks_of_edges(g), g


# -- graphs built from masks, whose edge set is derived when first read ------


def _built_from_masks(g: Graph, perm: list[int]) -> list[Graph]:
    """g built from its masks three ways, no edge set read yet: directly, by
    parsing its graph6 code, and by relabeling its relabeling back."""
    inverse = [0] * g.n
    for v, p in enumerate(perm):
        inverse[p] = v
    built = [_graph_of_masks(g.masks()), parse_graph6(encode_graph6(g)),
             _graph_of_masks(g.masks()).relabel(perm).relabel(inverse)]
    for h in built:
        assert "edges" not in vars(h)
    return built


@given(graphs(), st.data())
@settings(max_examples=200)
def test_graphs_built_from_masks_equal_the_graph_of_their_edges(g, data):
    for h in _built_from_masks(g, data.draw(st.permutations(range(g.n)))):
        assert hash(h) == hash(g) and h == g and g == h
        assert repr(h) == repr(g)
        assert h.masks() == g.masks() and encode_graph6(h) == encode_graph6(g)
        assert vars(h)["edges"] == g.edges  # stored once read


@given(graphs(), st.data())
@settings(max_examples=100)
def test_graphs_built_from_masks_round_trip_before_their_edges_are_read(g, data):
    for h in _built_from_masks(g, data.draw(st.permutations(range(g.n)))):
        for twin in (pickle.loads(pickle.dumps(h)), copy.copy(h)):
            assert "edges" not in vars(twin)
            assert twin.masks() == g.masks() and twin == g
        assert "edges" not in vars(h)


def test_a_missing_attribute_is_named():
    for g in (Graph.of(3, [(0, 1)]), parse_graph6("Bw")):
        with pytest.raises(AttributeError, match="'nothing_here'"):
            g.nothing_here
        # getattr with a default sees the same AttributeError
        assert getattr(g, "_graph6", None) is None
    assert parse_graph6("Bw").edges == frozenset({(0, 1), (0, 2), (1, 2)})


@given(graphs(), st.data())
@settings(max_examples=200)
def test_relabel_on_masks_equals_the_edge_relabel(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    want = Graph(g.n, frozenset(edge(perm[u], perm[v]) for u, v in g.edges))
    h = g.relabel(perm)
    assert h == want and h.masks() == want.masks()
    assert _graph_of_masks(g.masks()).relabel(perm) == want


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1], [2, 1, 2]])
def test_relabel_rejects_a_map_that_is_not_a_permutation(perm):
    with pytest.raises(ValueError, match="not a permutation"):
        Graph.of(3, [(0, 1), (1, 2)]).relabel(perm)


@pytest.mark.parametrize("n, edges", [(3, [(0, 3)]), (3, [(-1, 2)]), (3, [(2, 1)]), (0, [(0, 1)])])
def test_an_edge_out_of_range_is_rejected(n, edges):
    with pytest.raises(ValueError, match="out of range"):
        Graph(n, frozenset(edges))


def test_graph_of_rejects_a_vertex_out_of_range():
    for edges in ([(4, 1)], [(0, -2)], [(0, 1), (1, 3)]):
        with pytest.raises(ValueError, match="out of range"):
            Graph.of(3, edges)
    with pytest.raises(ValueError, match="negative vertex count"):
        Graph(-1, frozenset())


def test_graph6_code_is_cached_and_ignored_by_equality():
    path = parse_graph6("Cq")
    g = next(h for h in connected_graphs_up_to(4) if h == path)
    code = getattr(g, "_graph6")
    assert code == "Cq" and encode_graph6(g) is code
    assert g == path and hash(g) == hash(path) and repr(g) == repr(path)
    assert not hasattr(path, "_graph6")
    assert encode_graph6(path) == "Cq" and getattr(path, "_graph6") == "Cq"
    # derived graphs are new instances and encode their own edges
    for derived, edges in ((g.relabel([1, 0, 2, 3]), [(0, 1), (1, 2), (0, 3)]),
                           (g.with_edges([(2, 3)]), [(0, 1), (0, 2), (1, 3), (2, 3)])):
        assert not hasattr(derived, "_graph6")
        assert encode_graph6(derived) == reference_graph6(Graph.of(4, edges))


@given(graphs(), st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=3))
@settings(max_examples=200)
def test_components_match_reachability(g, offset, stride):
    # labels offset + stride*v leave gaps, like the vertex lists that
    # degree-two reduction passes in
    label = [offset + stride * v for v in range(g.n)]
    vertices = list(reversed(label))
    edges = [(label[u], label[v]) for u, v in g.edges]
    masks = [0] * (label[-1] + 1)
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    comps = [bits(c) for c in component_masks(masks, sum(1 << v for v in vertices))]
    expected = sorted({tuple(sorted(reachable(edges, v))) for v in vertices})
    assert [tuple(c) for c in comps] == expected
    assert g.is_connected() == (len(reachable(g.edges, 0)) == g.n)


@st.composite
def adjacency_masks(draw):
    """Adjacency masks of a random simple graph on 0-12 vertices; edges are
    sparse enough that isolated vertices and several components are common."""
    n = draw(st.integers(0, 12))
    masks = [0] * n
    if n > 1:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for u, v in draw(st.lists(st.sampled_from(pairs), max_size=n)):
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


@given(adjacency_masks())
@settings(max_examples=300)
def test_component_of_expands_component_masks(masks):
    expected = [0] * len(masks)
    for comp in component_masks(masks, (1 << len(masks)) - 1):
        for v in bits(comp):
            expected[v] = comp
    comp = component_of(masks)
    assert comp == expected
    assert all(comp[v] == 1 << v for v, m in enumerate(masks) if not m)


def test_induced_subgraph_relabels_in_order():
    g = Graph.of(5, [(0, 2), (2, 4), (1, 3), (0, 4)])
    sub = g.induced_subgraph([0, 2, 4])
    assert sub == Graph.of(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        g.induced_subgraph([3, 7])


def test_reduce_degree_two_triangle():
    tri = Graph.of(3, [(0, 1), (1, 2), (0, 2)])
    reduced, kept = reduce_degree_two(tri)
    assert reduced == Graph.of(2, [(0, 1)])
    assert kept == [1, 2]  # vertex 0 (lowest label) removed first


def test_reduce_degree_two_fixpoint():
    g = Graph.of(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    reduced, kept = reduce_degree_two(g)
    assert reduced == g and kept == [0, 1, 2, 3]


def test_reduce_four_cycle_collapses():
    c4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ReductionCollapse):
        reduce_degree_two(c4)


def test_reduce_cascades():
    # K4 with two stacked degree-two vertices: removing 5 drops 4 to degree
    # two, so the reduction cascades down to the K4 core
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = Graph.of(6, k4 + [(2, 4), (3, 4), (4, 5), (1, 5)])
    reduced, kept = reduce_degree_two(g)
    assert kept == [0, 1, 2, 3]
    assert reduced == Graph.of(4, k4)


def test_reduce_idempotent(rng):
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(4, 9), extra_edges=4)
        try:
            reduced, _ = reduce_degree_two(g)
        except ReductionCollapse:
            continue
        again, kept = reduce_degree_two(reduced)
        assert again == reduced and kept == list(range(reduced.n))
        assert 2 not in reduced.degrees()


def test_round_trip_on_a_large_graph(rng):
    g = random_connected_graph(rng, 40, extra_edges=60)
    assert parse_graph6(encode_graph6(g)) == g


def test_reduction_stops_at_degree_two_cut_vertex():
    # two triangles joined through a degree-two vertex: deleting it
    # disconnects, which the reduction refuses to silently accept
    g = Graph.of(
        7,
        [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6), (2, 3), (3, 4)],
    )
    with pytest.raises(ReductionCollapse):
        reduce_degree_two(g)
