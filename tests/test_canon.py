import random

import pytest

from movability.canon import (
    are_isomorphic,
    canonical_chunks,
    canonical_form,
    find_spanning_embedding,
)
from movability.catalog import catalog_graph, q1_embedding_example
from movability.graphs import Graph, parse_graph6

from canon_oracle import canonical_search, oracle_canonical_chunks
from conftest import random_connected_graph


def shuffled(g: Graph, rng) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_relabeling_invariance(rng):
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 9), extra_edges=rng.randint(0, 5))
        assert canonical_form(g) == canonical_form(shuffled(g, rng))


def test_canonical_form_is_a_graph6_code(rng):
    g = random_connected_graph(rng, 7, extra_edges=3)
    code = canonical_form(g)
    assert are_isomorphic(parse_graph6(code), g)


def test_distinguishes_nonisomorphic():
    c4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p4 = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
    assert canonical_form(c4) != canonical_form(p4)
    two_c4 = Graph.of(4, [(0, 2), (2, 1), (1, 3), (0, 3)])
    assert canonical_form(c4) == canonical_form(two_c4)


def test_highly_symmetric_graphs_terminate_quickly():
    k8 = Graph.of(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
    empty = Graph.of(8, [])
    k44 = catalog_graph("K44")
    for g in (k8, empty, k44):
        assert canonical_form(g) == canonical_form(g)


def test_q1_permutation_matches_catalog(rng):
    q1 = catalog_graph("Q1")
    target = canonical_form(q1)
    for _ in range(25):
        assert canonical_form(shuffled(q1, rng)) == target
    g, _, _ = q1_embedding_example()
    assert canonical_form(g) == target


def test_size_bound():
    with pytest.raises(ValueError):
        canonical_form(Graph.of(11, []))


def test_spanning_embedding():
    q1 = catalog_graph("Q1")
    sub = Graph(q1.n, frozenset(list(q1.edges)[:-2]))
    phi = find_spanning_embedding(sub, q1)
    assert phi is not None
    for u, v in sub.edges:
        assert tuple(sorted((phi[u], phi[v]))) in q1.edges
    # too many edges cannot embed
    assert find_spanning_embedding(q1, sub) is None


def test_spanning_embedding_respects_structure():
    c5 = Graph.of(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    p5 = Graph.of(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert find_spanning_embedding(p5, c5) is not None
    assert find_spanning_embedding(c5, p5) is None


def test_s1_contains_the_bipartite_part():
    from movability.catalog import catalog_graph

    s1 = catalog_graph("S1")
    k33_part = s1.induced_subgraph([1, 2, 4, 5, 6, 7])
    assert are_isomorphic(k33_part, catalog_graph("K33"))


def test_matches_the_relabeling_form_on_small_graphs_and_the_catalog(rng):
    from movability.catalog import load_catalog
    from movability.smallgraphs import connected_graphs_up_to

    from smallgraphs_oracle import relabel_canonical_form

    graphs = [Graph.of(0, []), Graph.of(1, []), Graph.of(3, [(0, 1)])]
    graphs += [*connected_graphs_up_to(7), *load_catalog().values()]
    assert len(graphs) == 3 + 995 + 21
    # denser graphs up to 10 vertices and their complements, often disconnected
    for _ in range(100):
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n * (n - 1) // 2))
        graphs += [g, Graph.of(n, g.non_edges())]
    for g in graphs:
        h = shuffled(g, rng)
        assert canonical_chunks(h.masks())[0] == canonical_search(h)[1], h
        assert canonical_form(h) == relabel_canonical_form(h), h


def test_cell_search_matches_the_mask_search_on_every_generated_child(monkeypatch):
    from movability import smallgraphs
    from movability.catalog import load_catalog

    # every child that generation canonizes up to 8 vertices, then the catalog
    inputs = []
    search = smallgraphs.canonical_chunks

    def recorded(masks):
        inputs.append(list(masks))
        return search(masks)

    monkeypatch.setattr(smallgraphs, "canonical_chunks", recorded)
    assert sum(1 for _ in smallgraphs.connected_graphs_up_to(8)) == 12112
    assert len(inputs) == 12858
    inputs += [list(g.masks()) for g in load_catalog().values()]
    inputs += [[], [0], [0, 0, 0]]
    for masks in inputs:
        # the same chunks and the same generators, in the same order
        assert canonical_chunks(masks) == oracle_canonical_chunks(masks), masks


def _automorphism_count(masks: tuple[int, ...]) -> int:
    """Automorphisms counted by backtracking: vertex v goes to each unused
    vertex of its degree that keeps v's adjacency to 0..v-1."""
    n = len(masks)
    deg = [m.bit_count() for m in masks]
    image: list[int] = []

    def rec(v: int, used: int) -> int:
        if v == n:
            return 1
        total = 0
        for t in range(n):
            if used >> t & 1 or deg[t] != deg[v]:
                continue
            if all(masks[v] >> u & 1 == masks[t] >> image[u] & 1 for u in range(v)):
                image.append(t)
                total += rec(v + 1, used | 1 << t)
                image.pop()
        return total

    return rec(0, 0)


def _group_order(generators: list[list[int]], n: int) -> int:
    """Order of the permutation group the generators generate, by closure."""
    seen = {tuple(range(n))}
    stack = list(seen)
    while stack:
        g = stack.pop()
        for p in generators:
            h = tuple(p[i] for i in g)
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return len(seen)


def test_generators_generate_the_automorphism_group(rng):
    from movability.catalog import load_catalog
    from movability.smallgraphs import connected_graphs_up_to

    graphs = [*connected_graphs_up_to(7), *load_catalog().values()]
    assert len(graphs) == 995 + 21
    for g in graphs:
        h = shuffled(g, rng)
        _, generators = canonical_chunks(h.masks())
        masks = parse_graph6(canonical_form(h)).masks()
        for p in generators:
            assert sorted(p) == list(range(g.n)), (g, p)
            for v, m in enumerate(masks):
                image = sum(1 << p[w] for w in range(g.n) if m >> w & 1)
                assert image == masks[p[v]], (g, p)
        assert _group_order(generators, g.n) == _automorphism_count(masks), g
