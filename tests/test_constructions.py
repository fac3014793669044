import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from movability import constructions
from movability.canon import canonical_form
from movability.catalog import (
    CATALOG_NAMES,
    catalog_graph,
    graph_with_unicolor_path,
    q1_embedding_example,
)
from movability.constructions import (
    DIRECTIONS,
    _CLASS_PAIRS,
    _NORMALS,
    _PAIR_INDEX,
    _SIDE_TRIPLES,
    _TWIN_TRIPLES,
    _has_twins,
    _pair_classes,
    _pair_embedding,
    _require_every_class,
    _tree_kernel,
    _twins_in,
    _unit_deltoid,
    AxesMotion,
    ConstructionInapplicable,
    EmbeddingR3,
    axes_parameters,
    axes_recipe,
    deltoid_motion,
    dixon_one,
    grid_construction,
    grid_search,
    motion_from_embedding,
    s5_graph_motion_labels,
    s5_motion,
    two_nac_embedding,
    two_nac_search,
    two_nac_solution_space,
)
from movability.graphs import Graph, edge
from movability.motion import (
    MotionError,
    active_nac_colorings,
    candidate_places,
    collinear_triples,
    motion_to_json,
    verify_injectivity,
)
from movability.nac import NacColoring, enumerate_nac, is_nac

from conftest import color, gr, rf
from two_nac_oracle import _nullspace, direction_class


K33 = Graph.of(6, [(a, b) for a in range(3) for b in range(3, 6)])


# -- Dixon's axes construction ----------------------------------------------


def test_dixon_unit_parameters_on_k33():
    # every edge keeps length sqrt(2), but each class sits in one point,
    # so dixon_one rejects these parameters
    axes = AxesMotion(
        K33, {v: Fraction(1) for v in range(3)}, {v: Fraction(1) for v in range(3, 6)}
    )
    lab = axes.labeling()
    assert set(lab.values()) == {Fraction(2)}
    assert len(lab) == 9
    assert not axes.is_proper()


def test_dixon_rejects_coinciding_vertices():
    # x-parameters 1, 1 put vertices 0 and 1 at (sqrt(1 - t^2), 0) for every t
    x = {0: Fraction(1), 1: Fraction(1), 2: Fraction(2)}
    y = {3: Fraction(1), 4: Fraction(2), 5: Fraction(3)}
    with pytest.raises(ConstructionInapplicable, match="not proper"):
        dixon_one(K33, x, y)
    # x-parameter -1 puts vertex 1 at (-sqrt(1 - t^2), 0) instead
    _, axes = dixon_one(K33, {**x, 1: Fraction(-1)}, y)
    assert axes.is_proper()


def test_dixon_sampler_at_zero():
    x = {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)}
    y = {3: Fraction(1), 4: Fraction(4), 5: Fraction(7)}
    lab, axes = dixon_one(K33, x, y)
    assert axes.extension == {}
    points = axes.positions_at_zero()
    for u in range(3):
        assert points[u] == (x[u], 0)
    for v in range(3, 6):
        assert points[v] == (0, y[v])
    # the Pythagorean identity: every edge keeps its length exactly, every
    # pair inside a class changes it
    for u in range(6):
        for v in range(u + 1, 6):
            expected = lab.get((u, v))
            assert axes.squared_distance(u, v) == expected
    assert axes.is_proper()


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "K33", "K34", "K35", "K44"])
def test_axes_distance_is_kept_per_unordered_pair(name):
    # the recipe of S1-S4 after its labeling, or dixon_one's motion with the
    # default parameters on a bipartite catalog entry: each pair, asked
    # either way round, reads the value a freshly built motion computes
    # afresh, None (a pair that changes length) included
    if name.startswith("S"):
        axes, fresh = axes_recipe(name), axes_recipe(name)
        axes.labeling()
    else:
        g = catalog_graph(name)
        x, y = axes_parameters(g)
        axes, fresh = dixon_one(g, x, y)[1], AxesMotion(g, x, y)
    pairs = list(combinations(range(axes.graph.n), 2))
    changing = 0
    for u, v in pairs:
        value = axes.squared_distance(u, v)
        assert axes.squared_distance(v, u) == value
        assert fresh._squared_distance(u, v) == value
        assert fresh._squared_distance(v, u) == value
        changing += value is None
    assert set(axes._distances) == set(pairs)
    assert "_distances" not in vars(fresh)
    # every edge keeps its length; the non-edges that change it make the
    # motion proper
    assert 0 < changing <= len(pairs) - len(axes.graph.edges)
    assert axes.is_proper()


def test_dixon_rejects_triangle_and_zero_parameters():
    k3 = Graph.of(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ConstructionInapplicable):
        dixon_one(k3, {}, {})
    with pytest.raises(ConstructionInapplicable):
        dixon_one(
            K33, {0: Fraction(0), 1: Fraction(1), 2: Fraction(1)},
            {v: Fraction(1) for v in range(3, 6)},
        )
    with pytest.raises(ConstructionInapplicable):
        dixon_one(Graph.of(2, [(0, 1)]), {0: Fraction(1)}, {1: Fraction(1)})


# -- grid construction --------------------------------------------------------


def test_grid_on_l1_with_the_prism_coloring():
    l1 = catalog_graph("L1")
    coloring = NacColoring(l1, frozenset({(0, 3), (1, 2), (4, 5)}))
    points, lab, motion = grid_construction(l1, coloring)
    assert len(set(points)) == 6
    # three red components of two vertices, two blue ones of three
    assert sorted(Counter(i for i, _ in points).values()) == [2, 2, 2]
    assert sorted(Counter(j for _, j in points).values()) == [3, 3]
    assert verify_injectivity(motion).proper
    assert motion.induced_labeling() == lab


def test_grid_succeeds_on_all_l_graphs():
    for name in ("L1", "L2", "L3", "L4", "L5", "L6"):
        g = catalog_graph(name)
        done = False
        for coloring in enumerate_nac(g, non_conjugated=True):
            try:
                _, lab, motion = grid_construction(g, coloring)
            except ConstructionInapplicable:
                continue
            assert verify_injectivity(motion).proper
            assert motion.induced_labeling() == lab
            done = True
            break
        assert done, f"no grid coloring for {name}"


def test_grid_labeling_matches_the_grid_formula():
    # oracle: a red edge stays in its red component (same i), a blue edge in
    # its blue component (same j), so its squared length is di^2 + dj^2
    for name in ("L1", "L2", "L3", "L4", "L5", "L6"):
        g = catalog_graph(name)
        coloring, points, lab, _ = grid_search(g, enumerate_nac(g, non_conjugated=True))
        for u, v in g.sorted_edges():
            (iu, ju), (iv, jv) = points[u], points[v]
            red = (u, v) in coloring.red
            assert (iu == iv, ju == jv) == (red, not red)
            assert lab[(u, v)] == (iu - iv) ** 2 + (ju - jv) ** 2


@pytest.mark.parametrize("source", ["up-to-6", "catalog"])
def test_grid_points_match_the_rebuilt_graph_oracle(source):
    # the cells come from the coloring's own component masks; the oracle
    # rebuilds each color as a graph and lists its components by lowest vertex
    from grid_oracle import grid_points

    if source == "up-to-6":
        from movability.smallgraphs import connected_graphs_up_to

        graphs = list(connected_graphs_up_to(6))
    else:
        graphs = [catalog_graph(name) for name in CATALOG_NAMES]
    outcomes = Counter()
    for g in graphs:
        for coloring in enumerate_nac(g):
            try:
                expected = grid_points(g, coloring)
            except ConstructionInapplicable as exc:
                expected = str(exc)
            try:
                got = grid_construction(g, coloring)[0]
            except ConstructionInapplicable as exc:
                got = str(exc)
            assert got == expected, (g.sorted_edges(), coloring.sort_key())
            outcomes[isinstance(got, str)] += 1
    assert outcomes[False] and outcomes[True]


def test_grid_edge_direction_invariants():
    l1 = catalog_graph("L1")
    coloring = NacColoring(l1, frozenset({(0, 3), (1, 2), (4, 5)}))
    points, _, _ = grid_construction(l1, coloring)
    for u, v in l1.sorted_edges():
        di = points[u][0] - points[v][0]
        dj = points[u][1] - points[v][1]
        if (u, v) in coloring.red:
            assert di == 0 and dj != 0
        else:
            assert dj == 0 and di != 0


def test_grid_rejects_every_coloring_of_the_unicolor_path_graph():
    g = graph_with_unicolor_path()
    reps = enumerate_nac(g, non_conjugated=True)
    assert len(reps) == 3
    for coloring in reps:
        with pytest.raises(ConstructionInapplicable):
            grid_construction(g, coloring)


# -- two-NAC embedding ---------------------------------------------------------


@pytest.fixture(scope="module")
def q1_pair():
    g, first_red, second_red = q1_embedding_example()
    return g, NacColoring(g, first_red), NacColoring(g, second_red)


def test_q1_solution_space_is_the_line(q1_pair):
    g, first, second = q1_pair
    basis = two_nac_solution_space(g, first, second)
    assert len(basis) == 1
    vec = basis[0]
    reference = (
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1), (-1, 0, 0),
    )
    scale = None
    for point, ref in zip(vec, reference):
        for c, r in zip(point, ref):
            if r == 0:
                assert c == 0
            elif scale is None:
                scale = Fraction(c, r)
            else:
                assert Fraction(c) == scale * r
    assert scale not in (None, 0)


def test_q1_embedding_and_motion(q1_pair):
    g, first, second = q1_pair
    emb = two_nac_embedding(g, first, second, seed=3)
    motion = motion_from_embedding(emb, deltoid_motion())
    report = verify_injectivity(motion)
    assert report.proper
    assert (0, 1, 6) in collinear_triples(motion)
    # the projection onto the frame cycle is the deltoid itself (up to scale)
    places = candidate_places(motion)
    assert {str(p) for p in places.places if not p.is_infinity} == {"i", "-i", "2i", "-2i"}
    active = active_nac_colorings(motion)
    assert len(active.colorings) == 4
    assert first in active.colorings and second in active.colorings
    non_conj = {min(c.red, c.blue, key=sorted) for c in active.colorings}
    assert len(non_conj) == 2


def test_embedding_construction_covers_all_q_graphs():
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"):
        g = catalog_graph(name)
        reps = enumerate_nac(g, non_conjugated=True)
        done = False
        for i in range(len(reps)):
            if done:
                break
            for j in range(i + 1, len(reps)):
                try:
                    emb = two_nac_embedding(g, reps[i], reps[j], seed=0)
                    motion = motion_from_embedding(emb, deltoid_motion())
                except ConstructionInapplicable:
                    continue
                if verify_injectivity(motion).proper:
                    # driving with the deltoid frame activates exactly the
                    # chosen pair and its conjugates
                    report = active_nac_colorings(motion)
                    assert len(report.colorings) == 4
                    done = True
                    break
        assert done, f"no embedding pair works for {name}"


def test_identical_pair_rejected(q1_pair):
    g, first, _ = q1_pair
    with pytest.raises(ConstructionInapplicable):
        two_nac_embedding(g, first, first)


def _non_nac(g, coloring, partner):
    """coloring with one edge recolored so that it is no NAC-coloring but
    the pair with partner still fills all four direction classes."""
    for e in sorted(g.edges):
        bad = NacColoring(g, coloring.red ^ {e})
        classes = {(color(bad, *f), color(partner, *f)) for f in g.edges}
        if not is_nac(g, bad) and len(classes) == 4:
            return bad
    raise AssertionError("no such recoloring")


def test_direct_calls_check_the_colorings(q1_pair):
    g, first, second = q1_pair
    bad = _non_nac(g, first, second)
    for call, args in ((two_nac_embedding, (bad, second)), (two_nac_solution_space, (bad, second)),
                       (grid_construction, (bad,))):
        with pytest.raises(ConstructionInapplicable, match="a supplied coloring is not a NAC-coloring"):
            call(g, *args)


def test_search_does_not_check_enumerated_colorings_again(monkeypatch):
    from movability import constructions

    g = catalog_graph("Q1")
    pairs = list(combinations(enumerate_nac(g, non_conjugated=True), 2))
    expected = constructions.two_nac_search(g, pairs)
    monkeypatch.setattr(constructions, "is_nac", lambda *args: pytest.fail("is_nac called"))
    first, second, emb, motion = constructions.two_nac_search(g, pairs)
    assert (first, second, emb) == expected[:3]
    assert motion.induced_labeling() == expected[3].induced_labeling()


def test_parallel_edges_share_color_pairs(q1_pair):
    g, first, second = q1_pair
    emb = two_nac_embedding(g, first, second, seed=0)
    pair_of = {}
    for u, v in g.sorted_edges():
        klass = direction_class([p - q for p, q in zip(emb.points[u], emb.points[v])])
        colors = (color(first, u, v), color(second, u, v))
        pair_of.setdefault(klass, set()).add(colors)
    for klass, pairs in pair_of.items():
        assert len(pairs) == 1


def test_normals_span_the_plane_orthogonal_to_each_direction():
    for direction, (a, b) in zip(DIRECTIONS, _NORMALS):
        assert sum(x * y for x, y in zip(a, direction)) == 0
        assert sum(x * y for x, y in zip(b, direction)) == 0
        cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        assert cross != (0, 0, 0)  # rank 2


def test_direction_class_rejects_zero_and_classless_vectors():
    for d in ((Fraction(0),) * 3, (Fraction(1), Fraction(1), Fraction(0))):
        with pytest.raises(ValueError):
            direction_class(d)


def _pairs(g):
    return [(g, a, b) for a, b in combinations(enumerate_nac(g, non_conjugated=True), 2)]


def _deletion_classes():
    """One connected one-edge-deleted catalog subgraph per isomorphism class."""
    seen, out = set(), []
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        for e in sorted(g.edges):
            h = Graph(g.n, g.edges - {e})
            if h.is_connected() and canonical_form(h) not in seen:
                seen.add(canonical_form(h))
                out.append(h)
    return out


@pytest.mark.parametrize("source", ["Q1", "S2", "deletions"])
def test_solution_space_matches_dense_elimination(source):
    # the RREF is unique for a fixed column order, so the tree-scalar solve
    # and the dense elimination give the same basis; S2's pairs hit every
    # rejection reason
    from two_nac_oracle import dense_solution_space as oracle

    if source == "deletions":
        classes = _deletion_classes()
        assert len(classes) == 87
        pairs = random.Random(0).sample([p for h in classes for p in _pairs(h)], 200)
    else:
        pairs = _pairs(catalog_graph(source))
        assert len(pairs) == {"Q1": 66, "S2": 231}[source]
    for g, first, second in pairs:
        assert two_nac_solution_space(g, first, second) == oracle(g, first, second)


def _embedding_outcome(embed, g, first, second):
    try:
        return embed(g, first, second, seed=0).points
    except ConstructionInapplicable as exc:
        return str(exc)


def _disconnected_pair():
    """Q1, a 4-cycle beside it and an isolated vertex, with a NAC pair that
    spans all four direction classes."""
    q1, first_red, second_red = q1_embedding_example()
    square = [(7, 8), (8, 9), (9, 10), (7, 10)]
    g = Graph.of(12, [*q1.sorted_edges(), *square])
    first = NacColoring(g, first_red | {(7, 8), (9, 10)})
    second = NacColoring(g, second_red | {(8, 9), (7, 10)})
    return g, first, second


def _old_solve_pairs(source):
    if source == "up-to-6":
        from movability.smallgraphs import connected_graphs_up_to

        pairs = [p for g in connected_graphs_up_to(6) for p in _pairs(g)]
        assert len(pairs) == 2901
        return pairs
    if source == "7-sample":
        from movability.smallgraphs import connected_graphs_up_to

        pairs = [p for g in connected_graphs_up_to(7) if g.n == 7 for p in _pairs(g)]
        assert len(pairs) == 45305
        return random.Random(7).sample(pairs, 2000)
    if source == "deletions":
        # ten seeded pairs (or all) of each of the 87 classes
        rng = random.Random(0)
        classes = _deletion_classes()
        assert len(classes) == 87
        pairs = []
        for h in classes:
            of_h = _pairs(h)
            pairs += rng.sample(of_h, min(10, len(of_h)))
        return pairs
    if source == "disconnected":
        return [_disconnected_pair()]
    pairs = _pairs(catalog_graph(source))
    assert len(pairs) == {"S2": 231, "S3": 276}[source]
    return pairs


@pytest.mark.parametrize("source", ["up-to-6", "7-sample", "S2", "S3", "deletions", "disconnected"])
def test_tree_solve_matches_the_old_sparse_solve(source):
    # the old solve's basis is the unique RREF nullspace of the 3n-unknown
    # system; the tree-scalar solve must return it exactly, and so reach the
    # same embedding or the same rejection message
    from two_nac_oracle import two_nac_embedding as old_embedding
    from two_nac_oracle import two_nac_solution_space as old_space

    for g, first, second in _old_solve_pairs(source):
        assert two_nac_solution_space(g, first, second) == old_space(g, first, second)
        assert _embedding_outcome(two_nac_embedding, g, first, second) == _embedding_outcome(
            old_embedding, g, first, second
        )


def _search_outcome(search, g, pairs):
    try:
        first, second, emb, motion = search(g, pairs)
    except ConstructionInapplicable as exc:
        return str(exc)
    return first, second, emb.points, motion_to_json(motion)


def _check_twin_test(g) -> Counter:
    """On g's non-conjugate pairs: the twin test never rejects a pair that
    the exact solve embeds, and the search agrees with the oracle's, which
    solves every pair exactly.  Counts the pairs with four nonempty classes
    by (embeds, rejected by the twin test)."""
    from two_nac_oracle import two_nac_search as oracle_search

    pairs = list(combinations(enumerate_nac(g, non_conjugated=True), 2))
    counts = Counter()
    for first, second in pairs:
        classes = _pair_classes(g, first, second)
        if len(set(classes.values())) < len(DIRECTIONS):
            continue
        try:
            _pair_embedding(g, classes, 0)
            embeds = True
        except ConstructionInapplicable:
            embeds = False
        twins = _has_twins(g, first, second)
        assert not (embeds and twins), (g.sorted_edges(), first.sort_key(), second.sort_key())
        counts[embeds, twins] += 1
    assert _search_outcome(two_nac_search, g, pairs) == _search_outcome(oracle_search, g, pairs)
    return counts


def _twin_test_graphs(source):
    if source == "up-to-7":
        from movability.smallgraphs import connected_graphs_up_to

        return [g for g in connected_graphs_up_to(7)
                if len(enumerate_nac(g, non_conjugated=True)) >= 2]
    if source == "catalog":
        return [catalog_graph(name) for name in CATALOG_NAMES]
    classes = _deletion_classes()
    assert len(classes) == 87
    return classes


@pytest.mark.parametrize("source", ["up-to-7", "catalog", "deletions"])
def test_twin_test_never_rejects_an_embedding_pair(source):
    # the twin test is sufficient only, so the search returns what the old
    # search, which solved every pair exactly, returned; the counts, keyed
    # by (embeds, rejected by the twin test), pin how often it spares the
    # exact solve
    counts = Counter()
    for g in _twin_test_graphs(source):
        counts += _check_twin_test(g)
    assert dict(counts) == {
        "up-to-7": {(True, False): 16833, (False, True): 14148, (False, False): 276},
        "catalog": {(True, False): 27, (False, True): 5103, (False, False): 78},
        "deletions": {(True, False): 636, (False, True): 17285, (False, False): 273},
    }[source]


@st.composite
def _graphs_8_to_10(draw):
    """A random tree on 8-10 vertices plus n - 2 to n + 3 extra edges, the
    density of classify-mix's random graphs."""
    n = draw(st.integers(8, 10))
    tree = {edge(v, draw(st.integers(0, v - 1))) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(others), min_size=n - 2, max_size=n + 3, unique=True))
    return Graph.of(n, tree | set(extra))


@settings(max_examples=100, deadline=None)
@given(_graphs_8_to_10())
def test_twin_test_never_rejects_an_embedding_pair_beyond_7_vertices(g):
    # a pair needs two colorings; at most 22, as in classify-mix, keeps the
    # pairs to 231 per graph
    assume(2 <= len(enumerate_nac(g, non_conjugated=True)) <= 22)
    _check_twin_test(g)


@pytest.mark.parametrize("source", ["catalog", "deletions"])
def test_twin_test_matches_the_six_partition_test(source):
    # the colorings' own sides go first, then the agree and differ
    # partitions; reordering the triples changes no answer.  The counts are
    # the pairs, those the test rejects and those the sides alone reject.
    from two_nac_oracle import has_twins

    counts = Counter()
    for g in _twin_test_graphs(source):
        for first, second in combinations(enumerate_nac(g), 2):
            twins = _has_twins(g, first, second)
            assert twins == has_twins(g, first, second), (g.sorted_edges(), first, second)
            (_, first_red), (_, first_blue) = first._sides
            (_, second_red), (_, second_blue) = second._sides
            sides = [first_blue, second_blue, None, None, second_red, first_red]
            counts["pairs"] += 1
            counts["rejected"] += twins
            counts["by sides"] += _twins_in(sides, _SIDE_TRIPLES, g.n)
    assert dict(counts) == {
        "catalog": {"pairs": 21910, "rejected": 21484, "by sides": 21360},
        "deletions": {"pairs": 80730, "rejected": 77052, "by sides": 75548},
    }[source]


def _class_check_outcome(check, *args):
    try:
        check(*args)
    except ConstructionInapplicable as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("source", ["catalog", "deletions"])
def test_class_sizes_match_the_mapping_check(source):
    # on every ordered pair of colorings, conjugates and equal pairs
    # included, the sizes of the red classes raise exactly when the old
    # check of the per-edge classes does, with the same message; the counts
    # are the pairs by the message, None where every class is nonempty
    from two_nac_oracle import _require_every_class as oracle

    counts = Counter()
    for g in _twin_test_graphs(source):
        for first, second in product(enumerate_nac(g), repeat=2):
            outcome = _class_check_outcome(_require_every_class, g, first, second)
            expected = _class_check_outcome(oracle, _pair_classes(g, first, second))
            assert outcome == expected, (g.sorted_edges(), first.sort_key(), second.sort_key())
            counts[outcome] += 1
    bb, br, rb, rr = _PAIR_INDEX
    # a coloring with itself leaves (blue, red) and (red, blue) empty, with
    # its conjugate (blue, blue) and (red, red)
    same, conjugate, one = {"catalog": (620, 620, 384), "deletions": (2828, 2828, 3270)}[source]
    assert dict(counts) == {
        None: {"catalog": 41664, "deletions": 145552}[source],
        _missing(br, rb): same,
        _missing(bb, rr): conjugate,
        **{_missing(p): one for p in _PAIR_INDEX},
    }


def _missing(*pairs):
    return f"direction classes for color pairs {list(pairs)} are empty"


def test_twin_triples_are_the_independent_ones():
    # the four dependent triples of class pairs are those through one class
    through_one = {
        triple for triple in combinations(range(len(_CLASS_PAIRS)), 3)
        if set.intersection(*(set(_CLASS_PAIRS[i]) for i in triple))
    }
    assert len(through_one) == 4
    assert set(_TWIN_TRIPLES) == set(combinations(range(len(_CLASS_PAIRS)), 3)) - through_one


def _same_motion(got, expected):
    assert got.coords == expected.coords
    assert got.fixed_edge == expected.fixed_edge
    assert got.induced_labeling() == expected.induced_labeling()


@pytest.mark.parametrize("source", ["catalog", "deletions"])
def test_closed_form_motions_match_the_old_sums(source):
    # every coloring that admits a grid, and every coloring pair that embeds
    # (the twin test rejects only pairs that do not), gives the motion the
    # old rational-function sums gave; canonical forms are unique
    from grid_oracle import grid_construction as old_grid
    from two_nac_oracle import motion_from_embedding as old_drive

    if source == "catalog":
        graphs = [catalog_graph(name) for name in CATALOG_NAMES]
    else:
        graphs = _deletion_classes()
    grids = embedded = 0
    for g in graphs:
        for coloring in enumerate_nac(g):
            try:
                points, labeling, motion = grid_construction(g, coloring)
            except ConstructionInapplicable:
                continue
            old_points, old_labeling, old_motion = old_grid(g, coloring)
            assert (points, labeling) == (old_points, old_labeling)
            _same_motion(motion, old_motion)
            grids += 1
        for first, second in combinations(enumerate_nac(g, non_conjugated=True), 2):
            classes = _pair_classes(g, first, second)
            if len(set(classes.values())) < len(DIRECTIONS) or _has_twins(g, first, second):
                continue
            try:
                emb = _pair_embedding(g, classes, 0)
            except ConstructionInapplicable:
                continue
            motion = motion_from_embedding(emb, _unit_deltoid())
            _same_motion(motion, old_drive(emb, deltoid_motion()))
            embedded += 1
    assert (grids, embedded) == {"catalog": (12, 27), "deletions": (84, 636)}[source]


def test_two_nac_search_reuses_one_unit_frame(monkeypatch):
    built = []
    fresh = constructions.deltoid_motion

    def counted(*args):
        built.append(args)
        return fresh(*args)

    monkeypatch.setattr(constructions, "deltoid_motion", counted)
    _unit_deltoid.cache_clear()
    try:
        motions = []
        for name in ("Q1", "Q2", "Q1"):
            g = catalog_graph(name)
            pairs = combinations(enumerate_nac(g, non_conjugated=True), 2)
            motions.append(two_nac_search(g, pairs)[3])
        assert built == [()]
        assert _unit_deltoid() is _unit_deltoid()
        assert motions[0] == motions[2]
    finally:
        _unit_deltoid.cache_clear()


def test_scaled_deltoid_is_built_fresh():
    # z2 = 4a (t + i)/(t - 2i) and z3 = a (t + i)(t + 2i)/((t - i)(t - 2i))
    # at a = 3/2, as the deltoid has always been built
    quad = deltoid_motion(Fraction(3, 2))
    again = deltoid_motion(Fraction(3, 2))
    assert quad is not again and quad.motion is not again.motion
    assert quad == again
    assert quad.motion.coords == (
        rf([0]),
        rf([Fraction(3, 2)]),
        rf([(0, 6), 6], [(0, -2), 1]),
        rf([-3, (0, Fraction(9, 2)), Fraction(3, 2)], [-2, (0, -3), 1]),
    )
    assert quad.cycle == (0, 1, 2, 3) and quad.motion.fixed_edge == (0, 1)


def test_tree_kernel_does_not_depend_on_how_the_edge_set_was_built(monkeypatch):
    # a relabeled graph's edge set derived from its masks and the same edge
    # set built edge by edge can iterate in different orders; the rows, the
    # kernel and the elimination work must not follow that order
    calls = []
    eliminate = constructions._eliminate

    def counted(vec, col, by):
        calls.append((vec, col, by))
        return eliminate(vec, col, by)

    monkeypatch.setattr(constructions, "_eliminate", counted)
    rng = random.Random(0)
    orders_differ = 0
    for name in CATALOG_NAMES:
        g = catalog_graph(name)
        perm = list(range(g.n))
        rng.shuffle(perm)
        from_masks = g.relabel(perm)
        from_edges = Graph.of(g.n, [edge(perm[u], perm[v]) for u, v in g.edges])
        assert from_masks == from_edges
        orders_differ += list(from_masks.edges) != list(from_edges.edges)
        for first, second in combinations(enumerate_nac(from_masks, non_conjugated=True), 2):
            outcomes = []
            for h in (from_masks, from_edges):
                classes = _pair_classes(h, NacColoring(h, first.red), NacColoring(h, second.red))
                calls.clear()
                outcomes.append((list(classes.items()), _tree_kernel(h, classes), list(calls)))
            assert outcomes[0] == outcomes[1], (name, first.sort_key(), second.sort_key())
    assert orders_differ


def test_search_raises_the_exact_message_of_a_twin_rejected_last_pair():
    # S1's last pair is rejected by the twin test; the message is the exact
    # solve's, as `construct two-nac` prints it
    g = catalog_graph("S1")
    pairs = list(combinations(enumerate_nac(g, non_conjugated=True), 2))
    first, second = pairs[-1]
    assert _has_twins(g, first, second)
    with pytest.raises(ConstructionInapplicable,
                       match="vertices 4 and 6 coincide on the whole solution space"):
        two_nac_search(g, pairs)


def test_disconnected_pair_translates_components_freely():
    g, first, second = _disconnected_pair()
    basis = two_nac_solution_space(g, first, second)
    # Q1's line; the square is a rectangle with sides along e_z and e_y, two
    # scalars plus a translation; vertex 11 translates freely
    assert len(basis) == 1 + (2 + 3) + 3
    emb = two_nac_embedding(g, first, second, seed=0)
    assert len(set(emb.points)) == g.n


def test_direction_class_agrees_with_normals_on_q1(q1_pair):
    g, first, second = q1_pair
    emb = two_nac_embedding(g, first, second, seed=0)
    for u, v in g.sorted_edges():
        d = [p - q for p, q in zip(emb.points[u], emb.points[v])]
        for k, normals in enumerate(_NORMALS):
            orthogonal = all(sum(x * y for x, y in zip(n, d)) == 0 for n in normals)
            assert orthogonal == (k == direction_class(d))


def test_color_pairs_are_the_geometric_classes_on_q_graphs():
    # the class the coloring pair selects for each edge is the class its
    # endpoint difference lies in, and the motion is pinned at the least
    # class-0 edge, oriented so that x grows from the base to the tip
    embedded = []
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"):
        g = catalog_graph(name)
        for first, second in combinations(enumerate_nac(g, non_conjugated=True), 2):
            try:
                embedded.append((first, second, two_nac_embedding(g, first, second, seed=0)))
            except ConstructionInapplicable:
                pass
    assert len(embedded) == 27
    for first, second, emb in embedded:
        g = emb.graph
        geometric = {}
        for u, v in g.sorted_edges():
            d = [p - q for p, q in zip(emb.points[u], emb.points[v])]
            geometric[u, v] = direction_class(d)
            assert geometric[u, v] == _PAIR_INDEX[color(first, u, v), color(second, u, v)]
        u, v = min(e for e, k in geometric.items() if k == 0)
        pin = (u, v) if emb.points[u][0] < emb.points[v][0] else (v, u)
        assert motion_from_embedding(emb, deltoid_motion()).fixed_edge == pin


def test_embedding_validation():
    g = Graph.of(2, [(0, 1)])
    with pytest.raises(ValueError):
        EmbeddingR3(g, ((Fraction(0),) * 3, (Fraction(0),) * 3))  # not injective


def _square(*points):
    return EmbeddingR3(Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
                       tuple(tuple(map(Fraction, p)) for p in points))


def test_motion_from_embedding_needs_an_edge_along_x():
    # the embedding checks only injectivity, so the pin's absence is
    # reported by the motion construction itself
    emb = _square((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1))
    with pytest.raises(ConstructionInapplicable, match="differs only in x"):
        motion_from_embedding(emb, deltoid_motion())


def test_motion_from_embedding_rejects_an_edge_outside_the_classes():
    # (2, 3) and (0, 3) are parallel to no DIRECTIONS entry, so their
    # lengths change as the frame moves
    emb = _square((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1))
    with pytest.raises(MotionError):
        motion_from_embedding(emb, deltoid_motion())


# -- the deltoid frame ---------------------------------------------------------


def _frame_norms_squared(quad):
    lab = quad.motion.induced_labeling()
    c0, c1, c2, c3 = quad.cycle
    return tuple(lab[edge(a, b)] for a, b in ((c0, c1), (c1, c2), (c2, c3), (c3, c0)))


def test_deltoid_frame_norms():
    assert _frame_norms_squared(deltoid_motion()) == (
        Fraction(1), Fraction(9), Fraction(9), Fraction(1),
    )
    assert _frame_norms_squared(deltoid_motion(Fraction(5, 2))) == (
        Fraction(25, 4), Fraction(225, 4), Fraction(225, 4), Fraction(25, 4),
    )
    with pytest.raises(ConstructionInapplicable):
        deltoid_motion(Fraction(-1))


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(3, 2)])
def test_deltoid_frame_functions_are_linearly_independent(scale):
    # two_nac_search relies on this: a vertex driven by the frame moves as
    # w1 f1 + w2 f2 + w3 f3, so distinct embedding points never coincide
    # for every t.  The real and imaginary parts of f1, f2, f3 at t = 0..4
    # form a 10x3 matrix over Q; an empty nullspace means rank 3.
    frames = deltoid_motion(scale).frames()
    values = [[getattr(f(gr(t)), part) for f in frames] for t in range(5) for part in ("re", "im")]
    assert _nullspace([{k: c for k, c in enumerate(row) if c} for row in values], 3) == []


def test_deltoid_time_zero_positions():
    m = deltoid_motion().motion
    t0 = gr(0)
    assert (m.x(2)(t0), m.y(2)(t0)) == (gr(-2), gr(0))
    assert (m.x(3)(t0), m.y(3)(t0)) == (gr(1), gr(0))


# -- the ad-hoc S5 motion --------------------------------------------------------


def test_s5_lengths_at_two():
    lab, motion = s5_motion(Fraction(2))
    assert lab[(0, 4)] == Fraction(9, 25)
    assert lab[(3, 4)] == Fraction(64, 25)
    assert lab[(4, 7)] == Fraction(64, 25)
    assert lab[(1, 2)] == Fraction(16)
    # lambda(3,4) = lambda(0,4) + lambda(0,3) as lengths
    assert Fraction(8, 5) == Fraction(3, 5) + Fraction(1)
    rhombus = [(3, 5), (3, 6), (5, 7), (6, 7)]
    assert len({lab[e] for e in rhombus}) == 1


def test_s5_sample_positions():
    _, motion = s5_motion(Fraction(2))
    u1 = gr(1)  # quarter turn
    assert (motion.x(3)(u1), motion.y(3)(u1)) == (gr(0), gr(1))
    assert (motion.x(5)(u1), motion.y(5)(u1)) == (gr(Fraction(-6, 5)), gr(Fraction(-3, 5)))


def test_s5_compatibility_and_injectivity():
    for a in (Fraction(2), Fraction(3, 2), Fraction(7, 3)):
        lab, motion = s5_motion(a)
        assert motion.induced_labeling() == lab  # every edge constant
        report = verify_injectivity(motion)
        assert report.proper
        triples = collinear_triples(motion)
        assert (0, 1, 2) in triples
        assert (0, 3, 4) in triples


def test_s5_parameter_validation():
    with pytest.raises(ConstructionInapplicable):
        s5_motion(Fraction(1))
    with pytest.raises(ConstructionInapplicable):
        s5_motion(Fraction(1, 2))


def test_s5_graph_matches_catalog():
    from movability.canon import are_isomorphic

    assert are_isomorphic(s5_graph_motion_labels(), catalog_graph("S5"))
