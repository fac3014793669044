import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movability.catalog import (
    catalog_graph,
    graph_with_unicolor_path,
    graph_without_nac,
    ring_of_complete_bipartite,
)
from movability.graphs import Graph, edge
from movability.nac import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    NacColoring,
    _dfs_edge_order,
    _triangle_classes,
    constant_distance_closure,
    enumerate_nac,
    is_nac,
    lite_closure_is_complete,
    unicolor_pairs,
)

from conftest import adjacency_sets, connected_graphs, random_connected_graph
from nac_oracle import (
    oracle_closure,
    oracle_enumerate_nac,
    oracle_lite_closure_is_complete,
    oracle_triangle_classes,
    oracle_unicolor_pairs,
)


# -- the brute-force cycle oracle ---------------------------------------------


def all_simple_cycles(g: Graph):
    """Every simple cycle exactly once (lowest vertex first, fixed orientation)."""
    adj = adjacency_sets(g)
    cycles = []

    def extend(path, visited):
        s, u = path[0], path[-1]
        for w in sorted(adj[u]):
            if w == s and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > s and w not in visited:
                visited.add(w)
                path.append(w)
                extend(path, visited)
                path.pop()
                visited.remove(w)

    for s in range(g.n):
        extend([s], {s})
    return cycles


def oracle_is_nac(g: Graph, coloring: NacColoring) -> bool:
    """Definition checked literally: surjective, every cycle unicolor or
    carrying at least two edges of each color."""
    if not coloring.red or not coloring.blue:
        return False
    for cycle in all_simple_cycles(g):
        edges = [edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        reds = sum(1 for e in edges if e in coloring.red)
        blues = len(edges) - reds
        if 0 < reds < 2 or 0 < blues < 2:
            if reds and blues:
                return False
    return True


def exhaustive_nac_count(g: Graph) -> int:
    edges = g.sorted_edges()
    count = 0
    for mask in range(1 << len(edges)):
        red = frozenset(e for k, e in enumerate(edges) if mask >> k & 1)
        if is_nac(g, NacColoring(g, red)):
            count += 1
    return count


def random_coloring(g: Graph, rng) -> NacColoring:
    return NacColoring(
        g, frozenset(e for e in g.edges if rng.random() < 0.5)
    )


# -- is_nac ---------------------------------------------------------------------


def test_is_nac_matches_cycle_oracle(rng):
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(3, 7), extra_edges=rng.randint(0, 4))
        if len(g.edges) > 12:
            continue
        c = random_coloring(g, rng)
        assert is_nac(g, c) == oracle_is_nac(g, c)


def test_deltoid_coloring_of_table():
    c4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # 12 and 23 blue, 34 and 14 red
    delta1 = NacColoring(c4, frozenset({(2, 3), (0, 3)}))
    assert is_nac(c4, delta1)


def test_triangle_never_nac():
    k3 = Graph.of(3, [(0, 1), (1, 2), (0, 2)])
    for red in ({(0, 1)}, {(0, 1), (1, 2)}):
        assert not is_nac(k3, NacColoring(k3, frozenset(red)))
    assert not is_nac(k3, NacColoring(k3, frozenset()))  # not surjective


def test_four_cycle_single_red_edge_rejected():
    c4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not is_nac(c4, NacColoring(c4, frozenset({(0, 1)})))


def test_an_edge_colored_twice_is_rejected():
    # a file listing (0, 1) twice used to keep its red entry
    c4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    text = json.dumps({"edges": [[0, 1], *[list(e) for e in c4.sorted_edges()]],
                       "colors": ["blue", "red", "blue", "red", "blue"]})
    with pytest.raises(ValueError, match="every edge exactly once"):
        NacColoring.from_json(c4, text)


# -- enumeration ----------------------------------------------------------------


def test_four_cycle_has_six_colorings():
    c4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    full = enumerate_nac(c4)
    assert len(full) == 6
    assert len(enumerate_nac(c4, non_conjugated=True)) == 3
    assert all(is_nac(c4, c) for c in full)


def test_no_nac_graph_enumerates_empty():
    assert enumerate_nac(graph_without_nac()) == []


def test_unicolor_path_graph_has_three_representatives():
    g = graph_with_unicolor_path()
    reps = enumerate_nac(g, non_conjugated=True)
    reds = {frozenset(c.red) for c in reps}
    assert reds == {
        frozenset({(0, 5), (3, 5), (5, 6)}),
        frozenset({(1, 6), (4, 6), (5, 6)}),
        frozenset({(0, 5), (3, 5), (1, 6), (4, 6)}),
    }


def test_enumeration_matches_exhaustive_filter(rng):
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(0, 4))
        if len(g.edges) > 14:
            continue
        assert len(enumerate_nac(g)) == exhaustive_nac_count(g)


def test_enumeration_closed_under_conjugation(rng):
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=2)
        full = set(enumerate_nac(g))
        assert {c.conjugate() for c in full} == full
        reps = enumerate_nac(g, non_conjugated=True)
        if full:
            assert len(reps) * 2 == len(full)


def test_conjugate_involution():
    c4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for c in enumerate_nac(c4):
        assert c.conjugate().conjugate() == c
        assert is_nac(c4, c.conjugate())


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_nac(ring_of_complete_bipartite())


def test_cached_sides_leave_equality_hashing_and_fields_alone():
    # the sides an is_nac call builds live outside the dataclass fields
    g = catalog_graph("Q1")
    accessed = enumerate_nac(g)[0]
    assert is_nac(g, accessed) and "_sides" in vars(accessed)
    fresh = NacColoring(g, accessed.red)
    assert "_sides" not in vars(fresh)
    assert accessed == fresh and hash(accessed) == hash(fresh)
    assert repr(accessed) == repr(fresh)
    assert dataclasses.fields(accessed) == dataclasses.fields(fresh)
    assert [f.name for f in dataclasses.fields(NacColoring)] == ["graph", "red"]
    assert accessed._sides == fresh._sides


def test_coloring_json_round_trip():
    c4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for c in enumerate_nac(c4):
        assert NacColoring.from_json(c4, c.to_json()) == c


# -- unicolor pairs and closure ---------------------------------------------


def test_unicolor_pairs_of_the_example_graph():
    g = graph_with_unicolor_path()
    pairs = unicolor_pairs(g)
    assert {(0, 3), (1, 4)} <= pairs
    assert pairs == {(0, 3), (0, 4), (1, 3), (1, 4)}


def test_unicolor_pairs_empty_for_deltoid_cycle():
    c4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert unicolor_pairs(c4) == set()


def test_unicolor_pairs_vacuous_when_no_nac():
    g = graph_without_nac()
    assert unicolor_pairs(g) == set(g.non_edges())


def test_unicolor_pairs_against_path_search(rng):
    # direct oracle: a pair qualifies iff some path between them is unicolor
    # under every representative coloring
    import itertools

    def oracle(g):
        reps = enumerate_nac(g, non_conjugated=True)
        adj = adjacency_sets(g)
        found = set()

        def paths(u, v):
            stack = [(u, [u])]
            while stack:
                x, path = stack.pop()
                if x == v:
                    yield path
                    continue
                for w in adj[x]:
                    if w not in path:
                        stack.append((w, path + [w]))

        for u, v in g.non_edges():
            for path in paths(u, v):
                path_edges = [edge(a, b) for a, b in zip(path, path[1:])]
                if all(
                    len({e in rep.red for e in path_edges}) == 1 for rep in reps
                ):
                    found.add((u, v))
                    break
        return found

    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(0, 3))
        assert unicolor_pairs(g) == oracle(g)


def test_closure_of_unicolor_path_graph_is_complete():
    report = constant_distance_closure(graph_with_unicolor_path())
    assert report.is_complete()
    assert report.closure.n == 7
    assert {(0, 3), (1, 4)} <= set(report.added[0])
    assert report.iterations == 2


def test_closure_fixpoints():
    q1 = catalog_graph("Q1")
    report = constant_distance_closure(q1)
    assert report.closure == q1 and report.iterations == 0
    k2 = Graph.of(2, [(0, 1)])
    assert constant_distance_closure(k2).closure == k2


def test_closure_monotone_and_idempotent(rng):
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(1, 4))
        closure = constant_distance_closure(g).closure
        # idempotent
        assert constant_distance_closure(closure).closure == closure
        # monotone under spanning subgraphs (keep it connected)
        edges = g.sorted_edges()
        rng.shuffle(edges)
        for e in edges:
            h = Graph(g.n, g.edges - {e})
            if h.is_connected() and h.edges:
                assert constant_distance_closure(h).closure.edges <= closure.edges
                break


def test_closure_complete_iff_spanning_subgraph_without_nac():
    """Direct search on the small census slice: a non-complete closure has a
    NAC-coloring on every connected spanning subgraph, while complete
    closures trivially contain one without (the complete graph itself)."""
    from itertools import combinations

    from movability.catalog import catalog_graph
    from movability.pebble import spanning_laman_rank
    from movability.smallgraphs import connected_graphs_up_to

    checked_noncomplete = 0
    for g in connected_graphs_up_to(6):
        if spanning_laman_rank(g) != 2 * g.n - 3:
            continue
        closure = constant_distance_closure(g).closure
        if closure.is_complete():
            # the complete graph is a spanning subgraph of itself with no
            # NAC-coloring (n >= 3 forces a unicolor triangle)
            if closure.n >= 3:
                assert enumerate_nac(closure) == []
            continue
        checked_noncomplete += 1
        edges = closure.sorted_edges()
        for mask in range(1 << len(edges)):
            kept = [e for k, e in enumerate(edges) if mask >> k & 1]
            h = Graph(closure.n, frozenset(kept))
            if not h.edges or not h.is_connected():
                continue
            assert enumerate_nac(h), (closure, kept)
    assert checked_noncomplete >= 2


def test_cap_propagates_through_pairs_and_closure():
    g25 = ring_of_complete_bipartite()
    with pytest.raises(EnumerationCapExceeded):
        unicolor_pairs(g25)
    with pytest.raises(EnumerationCapExceeded):
        constant_distance_closure(g25)


# -- agreement with the edge-by-edge, re-enumerating oracle ----------------------


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EnumerationCapExceeded as exc:
        return ("raised", str(exc))


def _assert_agrees_with_oracle(g: Graph, cap: int = DEFAULT_ENUMERATION_CAP):
    for non_conjugated in (False, True):
        assert _outcome(enumerate_nac, g, non_conjugated=non_conjugated, cap=cap) == _outcome(
            oracle_enumerate_nac, g, non_conjugated=non_conjugated, cap=cap
        )
    assert _outcome(unicolor_pairs, g, cap=cap) == _outcome(oracle_unicolor_pairs, g, cap=cap)
    # the cap applies to round one's enumeration only; once that passes, the
    # closure filters and agrees with the oracle re-enumerating every round
    # with no cap (no closure exceeds the complete graph's edge count)
    report = _outcome(constant_distance_closure, g, cap=cap)
    round_one = _outcome(oracle_enumerate_nac, g, non_conjugated=True, cap=cap)
    if isinstance(round_one, list):
        expected = oracle_closure(g, cap=g.n * (g.n - 1) // 2)
        assert (report.closure, report.added) == (expected.closure, expected.added)
    else:
        assert report == round_one


def _assert_triangles_monochromatic(g: Graph, cap: int = DEFAULT_ENUMERATION_CAP):
    colorings = _outcome(enumerate_nac, g, cap=cap)
    if not isinstance(colorings, list):
        return
    adj = adjacency_sets(g)
    triangles = [
        (edge(u, v), edge(u, w), edge(v, w))
        for u, v in g.edges
        for w in adj[u] & adj[v]
    ]
    for c in colorings:
        for tri in triangles:
            assert len({e in c.red for e in tri}) == 1, (c, tri)


def test_agrees_with_oracle_on_all_connected_graphs_up_to_7():
    from movability.smallgraphs import connected_graphs_up_to

    graphs = [Graph.of(1, []), *connected_graphs_up_to(7)]
    assert len(graphs) == 996
    nac_free = 0
    for g in graphs:
        _assert_agrees_with_oracle(g)
        _assert_triangles_monochromatic(g)
        # a cap at the edge count lets round one pass, and no later round raises
        _assert_agrees_with_oracle(g, cap=len(g.edges))
        nac_free += not enumerate_nac(g)
    # the closures of these graphs take the one-step path: all non-edges, then K_n
    assert nac_free == 263


def assert_triangle_classes_match_the_oracle(g: Graph, order: list) -> None:
    """The same classes as the breadth-first search, in the same order."""
    classes = _triangle_classes(g, order)
    expected = oracle_triangle_classes(g, order)
    assert [set(c) for c in classes] == [set(c) for c in expected], (g, order)
    assert [c[0] for c in classes] == [c[0] for c in expected], (g, order)
    assert sum(map(len, classes)) == len(g.edges)


def test_triangle_classes_match_the_oracle_on_all_connected_graphs_up_to_7():
    from movability.smallgraphs import connected_graphs_up_to

    rng = random.Random(7)
    for g in connected_graphs_up_to(7):
        order = _dfs_edge_order(g)
        assert_triangle_classes_match_the_oracle(g, order)
        # any order of the edges fixes the order of the classes
        rng.shuffle(order)
        assert_triangle_classes_match_the_oracle(g, order)


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.integers(8, DEFAULT_ENUMERATION_CAP))
def test_agrees_with_oracle_on_random_graphs(g, cap):
    _assert_agrees_with_oracle(g, cap)
    _assert_triangles_monochromatic(g, cap)


# -- the closure decided from triangle-class vertex sets -------------------------


def test_lite_closure_lies_inside_the_oracle_closure_on_all_connected_graphs_up_to_7():
    from movability.smallgraphs import connected_graphs_up_to

    decided = complete = 0
    for g in connected_graphs_up_to(7):
        full = oracle_closure(g).is_complete()
        lite = lite_closure_is_complete(g)
        assert full or not lite, g
        assert lite == oracle_lite_closure_is_complete(g), g
        decided += lite
        complete += full
    assert (decided, complete) == (418, 419)


def test_lite_closure_lies_inside_the_closure_on_random_graphs_with_9_to_12_vertices():
    rng = random.Random(12)
    decided = complete = 0
    for _ in range(300):
        n = rng.randint(9, 12)
        # from 2n - 3 edges, where rigidity starts, to 2n + 3 (at most 27)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(n - 2, n + 4))
        full = constant_distance_closure(g).is_complete()
        lite = lite_closure_is_complete(g)
        assert full or not lite, g
        assert lite == oracle_lite_closure_is_complete(g), g
        decided += lite
        complete += full
    assert (decided, complete) == (196, 196)


def _diamond(a: int, x: int, y: int, c: int) -> list:
    """Two triangles on the edge xy: one triangle class holding the
    non-adjacent pair ac."""
    return [(a, x), (a, y), (x, y), (x, c), (y, c)]


def test_lite_closure_merges_by_shared_pairs_and_triangles_across():
    cases = [
        (Graph.of(2, [(0, 1)]), True),
        # two classes sharing one vertex: the path's closure adds nothing
        (Graph.of(3, [(0, 1), (1, 2)]), False),
        # two diamonds sharing the pair 05 merge
        (Graph.of(6, _diamond(0, 1, 2, 5) + _diamond(0, 3, 4, 5)), True),
        # three diamonds with the triangle 012 across them merge
        (Graph.of(9, _diamond(0, 3, 4, 1) + _diamond(1, 5, 6, 2) + _diamond(2, 7, 8, 0)), True),
        # three triangles sharing one vertex carry no triangle across them
        (Graph.of(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)]), False),
    ]
    for g, decided in cases:
        assert lite_closure_is_complete(g) == decided, g
        assert constant_distance_closure(g).is_complete() == decided, g
    # no set holds an isolated vertex, so K1 and a graph with one are never decided
    assert not lite_closure_is_complete(Graph.of(1, []))
    assert not lite_closure_is_complete(Graph.of(3, [(0, 1)]))


@pytest.mark.parametrize("g", [Graph.of(3, [(0, 1)]), Graph.of(3, [(1, 2)]), Graph.of(4, [(0, 1), (2, 3)]),
                               Graph.of(7, [(0, 1), (0, 2), (1, 2), (4, 5), (4, 6), (5, 6)])],
                         ids=["isolated-2", "isolated-0", "two-edges", "two-triangles"])
def test_a_disconnected_graph_is_rejected_wherever_its_components_lie(g):
    # the DFS from vertex 0 must reach every vertex, not only every edge
    with pytest.raises(ValueError, match="graph must be connected"):
        enumerate_nac(g)
    with pytest.raises(ValueError, match="connected"):
        constant_distance_closure(g)
    # each starting set lies in one component, so none can hold every vertex
    assert lite_closure_is_complete(g) is False


@settings(max_examples=100, deadline=None)
@given(connected_graphs(max_n=6), connected_graphs(max_n=6))
def test_the_lite_closure_of_a_disjoint_union_is_never_complete(g, h):
    union = Graph.of(g.n + h.n, [*g.edges, *((u + g.n, v + g.n) for u, v in h.edges)])
    assert lite_closure_is_complete(union) is False


@settings(max_examples=100, deadline=None)
@given(connected_graphs(max_n=9), st.randoms(use_true_random=False))
def test_lite_closure_is_invariant_under_relabeling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert lite_closure_is_complete(g.relabel(perm)) == lite_closure_is_complete(g)
