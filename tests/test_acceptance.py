"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Exact criteria assert integer/rational equality with zero tolerance; numeric
criteria pin the stated thresholds.  The census criterion processes every
connected graph on up to eight vertices, far under its stated budget.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from movability.canon import canonical_form
from movability.catalog import (
    catalog_graph,
    graph_with_unicolor_path,
    graph_without_nac,
    load_catalog,
    movable_seven_vertex_graph,
    q1_embedding_example,
    ring_of_complete_bipartite,
)
from movability.constructions import (
    EmbeddingR3,
    deltoid_motion,
    motion_from_embedding,
    s5_motion,
    two_nac_embedding,
    two_nac_solution_space,
)
from movability.decide import (
    GENERICALLY_MOVABLE,
    MOVABLE,
    NOT_MOVABLE_CDC_COMPLETE,
    NOT_MOVABLE_NO_NAC,
    UNDECIDED,
    census,
    certify_no_unicolor_pairs,
    classify,
    nac_witnesses,
)
from movability.graphs import Graph, encode_graph6
from movability.motion import (
    ParametrizedMotion,
    active_nac_colorings,
    all_valuation_tables,
    collinear_triples,
    refix_edge,
    valuation_table,
    verify_injectivity,
    w_function,
    z_function,
)
from movability.nac import (
    NacColoring,
    constant_distance_closure,
    enumerate_nac,
    is_nac,
    lite_closure_is_complete,
)
from movability.ratfunc import RationalFunction
from movability.track import track_motion

import grid_oracle
import two_nac_oracle
from conftest import place_at, random_connected_graph, watched_variation
from test_edge_table import assert_agrees_with_oracle, with_refixes
from test_gluing import track_from_the_middle
from test_nac import all_simple_cycles, oracle_is_nac


def _ok(name: str):
    print(f"\nACCEPTANCE {name}: PASS")


# -- criterion 1: deltoid valuation table -------------------------------------


def test_criterion_1_deltoid_table(tmp_path, capsys):
    import json

    from movability.cli import main
    from movability.motion import motion_to_json

    t0 = time.monotonic()
    quad = deltoid_motion()
    m = quad.motion
    expected = {
        # places keyed by (re, im); rows ordered (0,1), (1,2), (2,3), (0,3)
        (0, -1): {(0, 1): 0, (1, 2): 0, (2, 3): 1, (0, 3): 1},
        (0, 1): {(0, 1): 0, (1, 2): 0, (2, 3): -1, (0, 3): -1},
        (0, -2): {(0, 1): 0, (1, 2): 1, (2, 3): 0, (0, 3): 1},
        (0, 2): {(0, 1): 0, (1, 2): -1, (2, 3): 0, (0, 3): -1},
    }
    seen = 0
    for (re, im), rows in expected.items():
        table = valuation_table(m, place_at(re, im))
        assert table.as_dict() == rows
        seen += len(rows)
    assert seen == 16
    active = active_nac_colorings(m)
    assert len(active.colorings) == 4
    assert {c.red for c in active.colorings} == {
        frozenset({(2, 3), (0, 3)}),  # delta_1
        frozenset({(0, 1), (1, 2)}),  # conj delta_1
        frozenset({(1, 2), (0, 3)}),  # delta_2
        frozenset({(0, 1), (2, 3)}),  # conj delta_2
    }
    assert len(enumerate_nac(m.graph)) == 6

    # the same facts through the command-line surface
    motion_file = tmp_path / "deltoid.json"
    motion_file.write_text(motion_to_json(m))
    assert main(["motion", "valuations", str(motion_file), "--format", "json"]) == 0
    tables = {
        entry["place"]: entry["valuations"]
        for entry in json.loads(capsys.readouterr().out)
    }
    place_names = {(0, -1): "-i", (0, 1): "i", (0, -2): "-2i", (0, 2): "2i"}
    for key, rows in expected.items():
        got = tables[place_names[key]]
        assert got == {f"{u},{v}": val for (u, v), val in rows.items()}
    assert main(["motion", "active-nac", str(motion_file), "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _ok(f"1 deltoid valuations/active set, module and CLI ({elapsed:.2f}s)")


# -- criterion 2: the seven-vertex triptych ------------------------------------


def test_criterion_2_seven_vertex_triptych():
    t0 = time.monotonic()
    left = graph_without_nac()
    assert enumerate_nac(left) == []
    t_left = time.monotonic() - t0

    t0 = time.monotonic()
    middle = graph_with_unicolor_path()
    reps = enumerate_nac(middle, non_conjugated=True)
    assert len(reps) == 3
    closure = constant_distance_closure(middle)
    assert closure.is_complete() and closure.closure.n == 7
    assert {(0, 3), (1, 4)} <= set(closure.added[0])
    t_mid = time.monotonic() - t0

    t0 = time.monotonic()
    right = movable_seven_vertex_graph()
    verdict = classify(right)
    assert verdict.kind == MOVABLE
    assert verdict.certificate.construction == "two_nac"
    assert verdict.certificate.verify(verdict.reduced)
    t_right = time.monotonic() - t0

    assert t_left < 1.0 and t_mid < 1.0 and t_right < 1.0
    _ok(
        f"2 triptych: no-NAC / closure-K7 / movable "
        f"({t_left:.2f}s, {t_mid:.2f}s, {t_right:.2f}s)"
    )


# -- criterion 3: the census ----------------------------------------------------


@pytest.fixture(scope="session")
def graph_stream_8():
    from movability.smallgraphs import connected_graphs_up_to

    return [encode_graph6(g) for g in connected_graphs_up_to(8)]


def test_criterion_3_stream_counts_per_n(graph_stream_8):
    per_n = Counter(ord(code[0]) - 63 for code in graph_stream_8)
    assert [per_n[n] for n in range(2, 9)] == [1, 2, 6, 21, 112, 853, 11117]
    assert sum(per_n.values()) == len(set(graph_stream_8)) == 12112


def test_criterion_3_stream_is_pinned(graph_stream_8):
    import hashlib

    assert len(graph_stream_8) == 12112
    digest = hashlib.sha1("\n".join(graph_stream_8).encode()).hexdigest()
    assert digest == "808942ecd64f1cf49569178fe1b25360545019ae"


def test_criterion_3_stream_parses_as_the_pairwise_parse(graph_stream_8):
    from movability.graphs import parse_graph6

    import graph6_oracle

    for code in graph_stream_8:
        g, want = parse_graph6(code), graph6_oracle.parse_graph6(code)
        assert g == want and g.masks() == want.masks(), code


def test_criterion_3_stream_matches_the_reference_search(graph_stream_8):
    import random

    from movability.canon import canonical_chunks, canonical_form
    from movability.graphs import parse_graph6

    from canon_oracle import canonical_search, oracle_canonical_chunks

    rng = random.Random(8)
    for k, code in enumerate(graph_stream_8):
        g = parse_graph6(code)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        chunks = canonical_search(h)[1]
        found = canonical_chunks(h.masks())
        assert found[0] == chunks, code
        assert canonical_form(h) == code, code
        if k % 4 == 0:  # and the generators of the mask search, on a sample
            assert found == oracle_canonical_chunks(list(h.masks())), code


def test_criterion_3_pebble_game_matches_the_set_game(graph_stream_8):
    from movability.graphs import parse_graph6
    from movability.pebble import _henneberg_spans, has_spanning_laman, spanning_laman_rank

    import pebble_oracle

    rng = random.Random(8)
    spanned = 0
    # the graphs that pass has_spanning_laman's screens, those of them the
    # Henneberg sweep spans, and those the game then finds spanned
    entered = swept = played_spanned = 0
    for code in graph_stream_8:
        g = parse_graph6(code)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        rank = pebble_oracle.spanning_laman_rank(h)
        assert spanning_laman_rank(h) == rank, code
        assert has_spanning_laman(h) == (rank == 2 * h.n - 3), code
        spanned += rank == 2 * h.n - 3
        if len(h.edges) >= 2 * h.n - 3 and (h.n < 3 or min(h.degrees()) >= 2):
            entered += 1
            if _henneberg_spans(h.masks()):
                swept += 1
            else:
                played_spanned += rank == 2 * h.n - 3
    assert spanned == 6629
    assert (entered, swept, played_spanned) == (7073, 6191, 438)


def test_criterion_3_triangle_classes_match_the_breadth_first_search(graph_stream_8):
    from movability.graphs import parse_graph6
    from movability.nac import _dfs_edge_order

    from test_nac import assert_triangle_classes_match_the_oracle

    rng = random.Random(8)
    for code in graph_stream_8:
        g = parse_graph6(code)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert_triangle_classes_match_the_oracle(h, _dfs_edge_order(h))


def test_criterion_3_nac_free_closures_add_every_non_edge_at_once(graph_stream_8):
    # the re-enumerating oracle agrees on every graph up to 7 vertices
    # (tests/test_nac.py); here each NAC-free graph of the stream must gain
    # every pair outside its edge set in one round and close to K_n
    from itertools import combinations

    from movability.graphs import parse_graph6
    from movability.pebble import has_spanning_laman

    free = 0
    for code in graph_stream_8:
        g = parse_graph6(code)
        if not has_spanning_laman(g) or enumerate_nac(g, non_conjugated=True):
            continue
        free += 1
        pairs = [(u, v) for u, v in combinations(range(g.n), 2) if (u, v) not in g.edges]
        report = constant_distance_closure(g)
        assert report.added == ((tuple(pairs),) if pairs else ()), code
        assert report.closure == Graph(g.n, frozenset(combinations(range(g.n), 2))), code
    assert free == 3676


def test_criterion_3_lite_closure_decides_most_complete_closures(graph_stream_8):
    from movability.graphs import parse_graph6
    from movability.pebble import has_spanning_laman

    from nac_oracle import oracle_lite_closure_is_complete

    rng = random.Random(8)
    spanned = complete = decided = 0
    for code in graph_stream_8:
        g = parse_graph6(code)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        if not has_spanning_laman(h):
            continue
        spanned += 1
        full = constant_distance_closure(h).is_complete()
        lite = lite_closure_is_complete(h)
        assert full or not lite, code
        assert lite == oracle_lite_closure_is_complete(h), code
        complete += full
        decided += lite
    assert (spanned, complete, decided) == (6629, 6492, 6477)


def test_criterion_3_census_runs_the_closure_only_where_the_lite_closure_leaves(
    graph_stream_8, monkeypatch
):
    # a pre-pass that stopped deciding would keep the report and only be slower
    import hashlib

    from movability import decide

    calls = 0
    closure = decide.constant_distance_closure

    def counted(g):
        nonlocal calls
        calls += 1
        return closure(g)

    monkeypatch.setattr(decide, "constant_distance_closure", counted)
    report = census(graph_stream_8, max_n=8, catalog=load_catalog(), jobs=1)
    assert calls == 6629 - 6477 == 152
    digest = hashlib.sha1(report.to_json().encode()).hexdigest()
    assert digest == "9c6305ed40e0b5798dd818742a8fb47d46385724"


def test_criterion_3_census(graph_stream_8):
    import hashlib
    import os

    t0 = time.monotonic()
    jobs = min(4, os.cpu_count() or 1)
    report = census(graph_stream_8, max_n=8, catalog=load_catalog(), jobs=jobs)
    elapsed = time.monotonic() - t0
    assert report.matches_catalog, [
        (c.closure_graph6, c.matched_catalog) for c in report.maximal_classes()
    ]
    maximal = report.maximal_classes()
    assert len(maximal) == 21
    assert {c.matched_catalog for c in maximal} == set(load_catalog())
    assert (report.graphs_seen, report.spanned_by_laman, report.survivors) == (12112, 6629, 83)
    assert len(report.classes) == 32
    # the whole report: every class, its sources, iterations and domination
    digest = hashlib.sha1(report.to_json().encode()).hexdigest()
    assert digest == "9c6305ed40e0b5798dd818742a8fb47d46385724"
    assert elapsed < 2 * 3600
    _ok(f"3 census over {report.graphs_seen} graphs = 21-entry catalog ({elapsed:.0f}s)")


def _keeps_squared_distance(cert, u: int, v: int) -> bool:
    """Whether |p_u - p_v|^2 is constant along the certificate's motion,
    exactly: the axes motion's own test for an axes core, the motion's for
    a parametrized motion; a pullback maps u and v into its parent graph
    and asks the parent's evidence."""
    while cert.parent is not None:
        u, v = cert.embedding[u], cert.embedding[v]
        cert = cert.parent[1]
    if cert.axes is not None:
        return cert.axes.squared_distance(u, v) is not None
    return _motion_keeps_squared_distance(cert.motion, u, v)


def _motion_keeps_squared_distance(m, u: int, v: int) -> bool:
    """Whether d * conj(d) over Q(i) is constant for d = p_v - p_u along m."""
    d = m.coords[v] - m.coords[u]
    return (d * d.conjugate_coeffs()).is_constant()


def _active_closure(m) -> tuple[int, list[tuple[int, int]]]:
    """The number of active colorings of motion m and the pairs that the
    constant distance closure run on them adds to m's graph.  By the
    closure lemma for the colorings of one motion, each pair keeps a
    constant distance along m; a place the places code misses drops its
    colorings and tends to show up here as a pair whose distance varies."""
    active = sorted(active_nac_colorings(m).colorings, key=NacColoring.sort_key)
    report = constant_distance_closure(m.graph, reps=active)
    pairs = [pair for added in report.added for pair in added]
    for u, v in pairs:
        assert _motion_keeps_squared_distance(m, u, v), (encode_graph6(m.graph), u, v)
    return len(active), pairs


def _old_sum_motion(cert):
    """The motion the old coordinate sums (`grid_oracle`, `two_nac_oracle`)
    build from a grid or two-NAC certificate's recorded coloring or
    embedding, else None."""
    g = cert.motion.graph
    if cert.construction == "grid":
        coloring = NacColoring(g, frozenset(map(tuple, cert.details["coloring_red"])))
        return grid_oracle.grid_construction(g, coloring)[2]
    if cert.construction == "two_nac":
        points = tuple(tuple(map(Fraction, p)) for p in cert.details["embedding"])
        return two_nac_oracle.motion_from_embedding(EmbeddingR3(g, points), deltoid_motion())
    return None


def _verdict_histograms(graphs):
    """Verdict kinds, MOVABLE routes and MOVABLE reduced vertex counts of
    classify over graphs; on the way, every graph spanned by a Laman graph
    must be MOVABLE exactly when the closure of its reduction is not complete,
    and every pair the closure of a MOVABLE verdict adds to its reduced graph
    must keep a constant distance along the certified motion (the lemma behind
    the closure).  A motion certificate's coordinates are then also a motion
    of the closure graph, whose active colorings must be NAC-colorings of
    the closure.  Every motion certificate also gets the closure run on its
    active colorings (`_active_closure`).  Also returns the number of the
    closure's pairs, of the verdicts that have one, and of the motions
    checked on their closure; then the number of motion certificates, their
    active set sizes, the number of active closure pairs and of those
    outside the verdict's closure graph, and the number of grid and two-NAC
    motions checked equal to the ones the old coordinate sums build from
    the certificate's coloring or embedding (`_old_sum_motion`)."""
    kinds, routes, sizes, active_sizes = Counter(), Counter(), Counter(), Counter()
    added_pairs = added_verdicts = closure_motions = 0
    motions = active_pairs = beyond_closure = old_sums = 0
    for g in graphs:
        verdict = classify(g)
        kinds[verdict.kind] += 1
        if verdict.kind == GENERICALLY_MOVABLE:
            continue
        closure = verdict.closure_graph or constant_distance_closure(verdict.reduced).closure
        assert (verdict.kind == MOVABLE) == (not closure.is_complete()), encode_graph6(g)
        if verdict.kind == MOVABLE:
            routes[verdict.certificate.construction] += 1
            sizes[verdict.reduced.n] += 1
            added = sorted(closure.edges - verdict.reduced.edges)
            for u, v in added:
                assert _keeps_squared_distance(verdict.certificate, u, v), (encode_graph6(g), u, v)
            added_pairs += len(added)
            added_verdicts += bool(added)
            m = verdict.certificate.motion
            if m is None:
                continue
            assert m.graph == verdict.reduced
            for r in with_refixes(m):
                assert_agrees_with_oracle(r)
            old = _old_sum_motion(verdict.certificate)
            if old is not None:
                assert (m.coords, m.fixed_edge, m.induced_labeling()) == (
                    old.coords, old.fixed_edge, old.induced_labeling()), encode_graph6(g)
                old_sums += 1
            if added:
                on_closure = ParametrizedMotion(closure, m.fixed_edge, m.coords)
                for coloring in active_nac_colorings(on_closure).colorings:
                    assert is_nac(closure, coloring), (encode_graph6(g), sorted(coloring.red))
                closure_motions += 1
            size, pairs = _active_closure(m)
            motions += 1
            active_sizes[size] += 1
            active_pairs += len(pairs)
            beyond_closure += sum(pair not in closure.edges for pair in pairs)
    return kinds, routes, sizes, (
        added_pairs, added_verdicts, closure_motions,
        motions, dict(active_sizes), active_pairs, beyond_closure, old_sums,
    )


def test_criterion_3_classify_decides_every_graph(graph_stream_8):
    """The sufficiency claim up to 8 vertices: classify decides every
    connected graph, and a graph spanned by a Laman graph is movable iff the
    constant distance closure of its degree-two reduction is not complete.
    The constructions' search order depends on labels, so one relabeled
    pass must give the same counts.  Each of the 65 pairs that the closures
    of 42 MOVABLE verdicts add keeps a constant distance along the
    certificate's motion, and the 41 of those verdicts with a motion
    certificate give motions of their closure graphs whose active colorings
    are all NAC-colorings of the closure.  The 104 motion certificates have
    2 active colorings on 83 and 4 on 21; the closures on their active
    colorings add 72 pairs, 8 of them outside the verdict's closure graph,
    and each keeps a constant distance along its motion.  All 104 are grid
    or two-NAC motions, equal to the ones the old coordinate sums build."""
    from movability.graphs import parse_graph6

    expected_kinds = {
        MOVABLE: 137,
        NOT_MOVABLE_CDC_COMPLETE: 899,
        NOT_MOVABLE_NO_NAC: 5593,
        GENERICALLY_MOVABLE: 5483,
    }
    expected_routes = {
        "grid": 83,
        "dixon_one": 25,
        "two_nac": 21,
        "catalog:S2": 3,
        "catalog:S4": 2,
        "catalog:S1": 1,
        "catalog:S3": 1,
        "catalog:S5": 1,
    }
    expected_sizes = {6: 46, 7: 36, 8: 55}
    t0 = time.monotonic()
    graphs = [parse_graph6(code) for code in graph_stream_8]
    rng = random.Random(1)
    relabeled = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled.append(g.relabel(perm))
    for stream in (graphs, relabeled):
        kinds, routes, sizes, added = _verdict_histograms(stream)
        assert kinds[UNDECIDED] == 0
        assert dict(kinds) == expected_kinds
        assert dict(routes) == expected_routes
        assert dict(sizes) == expected_sizes
        assert added == (65, 42, 41, 104, {2: 83, 4: 21}, 72, 8, 104)
    _ok(f"3 classify decides all {len(graphs)} graphs, twice ({time.monotonic() - t0:.0f}s)")


# -- criterion 4: the Q1 embedding ----------------------------------------------


def test_criterion_4_q1_embedding():
    t0 = time.monotonic()
    g, first_red, second_red = q1_embedding_example()
    first, second = NacColoring(g, first_red), NacColoring(g, second_red)
    basis = two_nac_solution_space(g, first, second)
    assert len(basis) == 1
    reference = (
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1), (-1, 0, 0),
    )
    scale = None
    for point, ref in zip(basis[0], reference):
        for c, r in zip(point, ref):
            if r == 0:
                assert c == 0
            elif scale is None:
                scale = Fraction(c, r)
            else:
                assert c == scale * r
    assert scale not in (None, 0)
    embedding = two_nac_embedding(g, first, second, seed=0)
    motion = motion_from_embedding(embedding, deltoid_motion())
    motion.induced_labeling()  # the motion type rejects a non-constant edge length
    report = verify_injectivity(motion)
    assert report.proper
    assert (0, 1, 6) in collinear_triples(motion)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _ok(f"4 Q1 embedding basis and proper motion ({elapsed:.2f}s)")


# -- criterion 5: S5 -------------------------------------------------------------


def test_criterion_5_s5():
    t0 = time.monotonic()
    labeling, motion = s5_motion(Fraction(2))
    assert labeling[(0, 4)] == Fraction(9, 25)
    assert labeling[(3, 4)] == Fraction(64, 25)
    # lambda(3,4) = lambda(0,4) + lambda(0,3) as lengths: 8/5 = 3/5 + 1
    assert Fraction(8, 5) == Fraction(3, 5) + Fraction(1)
    for u, v in motion.graph.sorted_edges():
        dx, dy = motion.x(v) - motion.x(u), motion.y(v) - motion.y(u)
        d2 = dx * dx + dy * dy
        assert d2.is_constant()
        assert d2.constant_value().re == labeling[(u, v)]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _ok(f"5 S5 closed-form labeling at a=2 ({elapsed:.2f}s)")


# -- criterion 6: G25 -------------------------------------------------------------


def test_criterion_6_g25():
    t0 = time.monotonic()
    g25 = ring_of_complete_bipartite()
    assert g25.n == 25 and len(g25.edges) == 125
    witnesses = nac_witnesses(g25)
    assert len(witnesses) == 25
    assert all(is_nac(g25, w) for w in witnesses)
    assert certify_no_unicolor_pairs(g25, witnesses)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok(f"6 G25 witness certification ({elapsed:.2f}s)")


# -- criterion 7: property suites --------------------------------------------------


def test_criterion_7a_is_nac_oracle():
    rng = random.Random(7001)
    checked = 0
    while checked < 500:
        g = random_connected_graph(rng, rng.randint(3, 7), extra_edges=rng.randint(0, 4))
        if len(g.edges) > 12:
            continue
        coloring = NacColoring(g, frozenset(e for e in g.edges if rng.random() < 0.5))
        assert is_nac(g, coloring) == oracle_is_nac(g, coloring)
        checked += 1
    _ok("7a is_nac = cycle oracle on 500 random graphs")


def test_criterion_7b_enumeration_count():
    rng = random.Random(7002)
    checked = 0
    while checked < 15:
        g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(0, 6))
        if len(g.edges) > 14:
            continue
        edges = g.sorted_edges()
        count = 0
        for mask in range(1 << len(edges)):
            red = frozenset(e for k, e in enumerate(edges) if mask >> k & 1)
            if is_nac(g, NacColoring(g, red)):
                count += 1
        assert len(enumerate_nac(g)) == count
        checked += 1
    _ok("7b enumeration count = exhaustive filter")


def test_criterion_7c_closure_monotone_idempotent():
    rng = random.Random(7003)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(1, 4))
        closure = constant_distance_closure(g).closure
        assert constant_distance_closure(closure).closure == closure
        edges = g.sorted_edges()
        rng.shuffle(edges)
        for e in edges:
            h = Graph(g.n, g.edges - {e})
            if h.is_connected() and h.edges:
                assert constant_distance_closure(h).closure.edges <= closure.edges
                break
    _ok("7c closure monotone under subgraphs and idempotent (200 cases)")


def _bundled_motions():
    quad = deltoid_motion()
    g, first_red, second_red = q1_embedding_example()
    emb = two_nac_embedding(
        g, NacColoring(g, first_red), NacColoring(g, second_red), seed=0
    )
    q1_motion = motion_from_embedding(emb, deltoid_motion())
    _, s5 = s5_motion(Fraction(2))
    return {"deltoid": quad.motion, "q1": q1_motion, "s5": s5}


def test_criterion_7d_wz_and_cycle_sums():
    for name, m in _bundled_motions().items():
        lab = m.induced_labeling()
        for u, v in m.graph.sorted_edges():
            w = w_function(m, u, v)
            z = z_function(m, u, v)
            prod = w * z
            assert prod.is_constant()
            value = prod.constant_value()
            assert value.im == 0 and value.re == lab[(u, v)]
        for cycle in all_simple_cycles(m.graph):
            total = RationalFunction.const(0)
            for a, b in zip(cycle, cycle[1:] + (cycle[0],)):
                total = total + w_function(m, a, b)
            assert total.is_zero()
    _ok("7d W*Z = lambda^2 and zero cycle sums on all bundled motions")


def test_criterion_7e_refix_invariance():
    motions = _bundled_motions()
    for name in ("deltoid", "q1"):
        m = motions[name]
        lab = m.induced_labeling()
        active = {c.red for c in active_nac_colorings(m).colorings}
        for e in sorted(m.graph.edges):
            try:
                refixed = refix_edge(m, *e)
            except Exception:
                raise AssertionError(f"refix to {e} failed on {name}")
            assert refixed.induced_labeling() == lab
            assert {c.red for c in active_nac_colorings(refixed).colorings} == active
    _ok("7e refix preserves labeling and active set (deltoid, Q1)")


def test_criterion_7e_active_closure_on_bundled_motions():
    # the deltoid, Q1 and S5 at three values of a, each also refixed to
    # every edge: a refix keeps the active colorings, so the closure on them
    # must add the same pairs, here none
    motions = _bundled_motions()
    for a in (Fraction(3, 2), Fraction(7, 3)):
        motions[f"s5-{a}"] = s5_motion(a)[1]
    expected_sizes = {"deltoid": 4, "q1": 4}
    for name, m in motions.items():
        for refixed in (m, *(refix_edge(m, *e) for e in sorted(m.graph.edges))):
            assert _active_closure(refixed) == (expected_sizes.get(name, 6), []), name
    _ok("7e active closures of the bundled motions and their refixes add nothing")


def test_criterion_7f_tracker_agreement():
    quad = deltoid_motion()
    m = quad.motion
    start = np.array(m.realize_float(1.0))
    path = track_motion(
        m.induced_labeling(), start, (0, 1), steps=100, step_size=0.04, tol=1e-12
    )
    worst = 0.0
    for sample in path.samples:
        x2, y2 = sample.coords[2]
        if abs(y2) < 1e-6:
            continue
        ratio = x2 / y2
        disc = (3 * ratio) ** 2 + 8
        best = math.inf
        for t in ((3 * ratio + math.sqrt(disc)) / 2, (3 * ratio - math.sqrt(disc)) / 2):
            exact = np.array(m.realize_float(t))
            best = min(best, float(np.max(np.abs(exact - sample.coords))))
        worst = max(worst, best)
    assert worst <= 1e-8
    _ok(f"7f tracker agrees with the exact deltoid curve (max err {worst:.1e})")


def test_criterion_7g_glued_labelings_track():
    from movability.gluing import glued_s1, glued_s2, glued_s3

    glued = glued_s1(samples=110)
    assert len(glued.samples) >= 100
    assert glued.injectivity_margin > 0
    assert max(s.residual for s in glued.samples) < 1e-9
    assert watched_variation(glued) > 1e-3

    for recipe in (glued_s2, glued_s3):
        path = track_from_the_middle(recipe(), steps=110)
        assert len(path.samples) >= 100
        assert path.injectivity_margin > 0
        assert watched_variation(path) > 1e-3
    _ok("7g S1-S3 glued labelings: 100+ injective samples, flexing witness")
