import ast
import dataclasses
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from movability.canon import canonical_form
from movability.catalog import (
    CATALOG_NAMES,
    catalog_graph,
    graph_with_unicolor_path,
    graph_without_nac,
    load_catalog,
    movable_seven_vertex_graph,
    ring_of_complete_bipartite,
)
from movability.constructions import AxesMotion, ConstructionInapplicable, dixon_one
from movability.decide import (
    MOVABLE,
    NOT_MOVABLE_CDC_COMPLETE,
    NOT_MOVABLE_NO_NAC,
    GENERICALLY_MOVABLE,
    UNDECIDED,
    MovabilityCertificate,
    catalog_certificate,
    census,
    certify_no_unicolor_pairs,
    classify,
    nac_witnesses,
)
from movability.graphs import Graph, edge, encode_graph6
from movability.nac import NacColoring, constant_distance_closure, enumerate_nac, is_nac
from movability.smallgraphs import connected_graphs_up_to


# -- classify on the three7-vertex companions --------------------------------


def test_classify_graph_without_nac():
    verdict = classify(graph_without_nac())
    assert verdict.kind == NOT_MOVABLE_NO_NAC


def test_classify_unicolor_path_graph():
    verdict = classify(graph_with_unicolor_path())
    assert verdict.kind == NOT_MOVABLE_CDC_COMPLETE
    assert verdict.closure_graph.is_complete()


@pytest.mark.parametrize("graph", [graph_with_unicolor_path, movable_seven_vertex_graph])
def test_classify_enumerates_nac_once(graph, monkeypatch):
    from movability import decide, nac

    calls = []

    def counted(g, **kwargs):
        calls.append(g)
        return enumerate_nac(g, **kwargs)

    monkeypatch.setattr(nac, "enumerate_nac", counted)
    monkeypatch.setattr(decide, "enumerate_nac", counted)
    verdict = classify(graph())
    assert calls.count(verdict.reduced) == 1
    monkeypatch.undo()
    closure = constant_distance_closure(verdict.reduced)
    assert (verdict.closure_graph, verdict.closure_iterations) == (
        closure.closure, closure.iterations,
    )


def test_classify_movable_seven_vertex_graph():
    verdict = classify(movable_seven_vertex_graph())
    assert verdict.kind == MOVABLE
    assert verdict.certificate.construction == "two_nac"
    assert verdict.certificate.verify(verdict.reduced)


def test_classify_generic_cases():
    path = Graph.of(3, [(0, 1), (1, 2)])
    assert classify(path).kind == GENERICALLY_MOVABLE
    c4 = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert classify(c4).kind == GENERICALLY_MOVABLE


def test_classify_small_rigid_graphs():
    k2 = Graph.of(2, [(0, 1)])
    assert classify(k2).kind == NOT_MOVABLE_NO_NAC
    triangle = Graph.of(3, [(0, 1), (1, 2), (0, 2)])
    assert classify(triangle).kind == NOT_MOVABLE_NO_NAC  # reduces to K2


def test_classify_degree_two_reduction_route():
    # K33 with one subdivided-ish pendant Henneberg vertex stays movable
    k33 = catalog_graph("K33")
    g = Graph.of(7, list(k33.edges) + [(0, 6), (3, 6)])
    verdict = classify(g)
    assert verdict.kind == MOVABLE
    assert verdict.removed_vertices == (6,)
    assert verdict.reduced.n == 6


def test_classify_catalog_entries():
    expected_route = {
        "K": "dixon_one",
        "L": "grid",
        "Q": "two_nac",
        "S": "catalog",
    }
    for name in CATALOG_NAMES:
        verdict = classify(catalog_graph(name))
        assert verdict.kind == MOVABLE, name
        assert verdict.certificate.construction.split(":")[0].startswith(
            expected_route[name[0]]
        ), (name, verdict.certificate.construction)
        assert verdict.certificate.verify(verdict.reduced), name


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5"])
def test_catalog_certificate_matches_classify(name):
    # classify certifies each recipe entry by pulling back its catalog
    # certificate along a spanning embedding of the entry into itself
    g = catalog_graph(name)
    verdict = classify(g)
    assert verdict.reduced == g
    cert = catalog_certificate(name)
    pulled = verdict.certificate
    assert pulled.parent == (g, cert) and pulled.details["catalog_entry"] == name
    phi = pulled.embedding
    assert pulled.labeling == {(u, v): cert.labeling[edge(phi[u], phi[v])] for u, v in g.edges}
    assert cert.verify(g)


@pytest.mark.parametrize("name", ["K33", "L1", "Q1"])
def test_catalog_certificate_covers_only_the_recipe_entries(name):
    with pytest.raises(ValueError, match="not a recipe entry"):
        catalog_certificate(name)


# -- certificates must belong to the graph they certify ---------------------------


def test_pullback_rejects_an_embedding_of_another_size():
    # a single edge is rigid; Q1's evidence says nothing about it
    q1 = catalog_graph("Q1")
    q1_cert = classify(q1).certificate
    phi = [0, 3, 1, 2, 4, 5, 6]
    cert = MovabilityCertificate(
        construction="catalog:Q1",
        labeling={(0, 1): q1_cert.labeling[(0, 3)]},
        parent=(q1, q1_cert),
        embedding=phi,
    )
    assert not cert.verify(Graph.of(2, [(0, 1)]))


def test_pullback_rejects_a_short_embedding_without_raising():
    # Q1 plus vertex 7, with edge (0, 3) moved to (0, 7): phi has no entry 7
    q1 = catalog_graph("Q1")
    q1_cert = classify(q1).certificate
    g = Graph.of(8, (q1.edges - {(0, 3)}) | {(0, 7)})
    labeling = {e: q1_cert.labeling.get(e, Fraction(1)) for e in g.edges}
    cert = MovabilityCertificate(
        construction="catalog:Q1", labeling=labeling, parent=(q1, q1_cert), embedding=list(range(7))
    )
    assert cert.verify(g) is False


@pytest.mark.parametrize("n", [7, 4])
def test_motion_of_another_graph_is_no_evidence(n):
    motion = classify(catalog_graph("Q1")).certificate.motion
    g = Graph.of(n, [(0, 3)])
    cert = MovabilityCertificate(
        construction="two_nac",
        labeling={(0, 3): motion.induced_labeling()[edge(0, 3)]},
        motion=motion,
    )
    assert cert.verify(g) is False


def test_axes_sampler_needs_its_own_graph_with_three_vertices():
    # K2 has no non-edge, so its axes motion is a rigid motion
    k2 = Graph.of(2, [(0, 1)])
    axes = AxesMotion(k2, {0: Fraction(1)}, {1: Fraction(1)})
    cert = MovabilityCertificate(construction="dixon_one", labeling={(0, 1): Fraction(2)}, axes=axes)
    assert not cert.verify(k2)
    # K33's axes motion restricted to K33 minus an edge
    k33 = catalog_graph("K33")
    labeling, axes = dixon_one(k33, {0: 1, 1: 2, 2: 3}, {3: 1, 4: 2, 5: 3})
    assert MovabilityCertificate("dixon_one", labeling, axes=axes).verify(k33)
    smaller = Graph(6, k33.edges - {(0, 3)})
    restricted = {e: lam for e, lam in labeling.items() if e in smaller.edges}
    assert not MovabilityCertificate("dixon_one", restricted, axes=axes).verify(smaller)


@pytest.mark.parametrize(
    "case", ["missing-edge", "zero-label", "frozen", "non-edge", "label-off", "no-evidence"]
)
def test_verify_rejects_broken_evidence(case):
    # exact evidence is checked with zero tolerance: each case breaks one
    # check of MovabilityCertificate.verify that the intact pullback passes
    from movability.constructions import deltoid_motion
    from movability.exact import GaussianRational
    from movability.motion import ParametrizedMotion
    from movability.ratfunc import RationalFunction

    motion = deltoid_motion().motion
    c4, labeling = motion.graph, motion.induced_labeling()
    parent = (c4, MovabilityCertificate("deltoid", labeling, motion=motion))
    assert MovabilityCertificate("catalog:C4", labeling, parent=parent, embedding=[0, 1, 2, 3]).verify(c4)
    square = ((0, 0), (1, 0), (1, 1), (0, 1))
    frozen = ParametrizedMotion(
        c4, (0, 1), tuple(RationalFunction.const(GaussianRational.of(*z)) for z in square)
    )
    broken = {
        "missing-edge": MovabilityCertificate(
            "deltoid", {e: labeling[e] for e in sorted(c4.edges)[1:]}, motion=motion
        ),
        "zero-label": MovabilityCertificate("deltoid", {**labeling, (0, 1): Fraction(0)}, motion=motion),
        "frozen": MovabilityCertificate("frozen", frozen.induced_labeling(), motion=frozen),
        # swapping 1 and 2 sends edge (0, 1) to the diagonal (0, 2)
        "non-edge": MovabilityCertificate("catalog:C4", labeling, parent=parent, embedding=[0, 2, 1, 3]),
        "label-off": MovabilityCertificate(
            "catalog:C4", {**labeling, (0, 1): labeling[(0, 1)] + Fraction(1, 10**9)},
            parent=parent, embedding=[0, 1, 2, 3],
        ),
        "no-evidence": MovabilityCertificate("none", labeling),
    }[case]
    assert broken.verify(c4) is False


# -- the exact evidence of S1-S4 ---------------------------------------------------


def _chain(cert):
    while cert is not None:
        yield cert
        cert = cert.parent[1] if cert.parent else None


def test_catalog_certificates_carry_no_float(monkeypatch):
    # cold cache, tracker refused: every catalog entry is classified and
    # re-verified from exact evidence alone
    from movability import decide, track

    def refuse(*args, **kwargs):
        raise AssertionError("track_motion called")

    monkeypatch.setattr(track, "track_motion", refuse)
    monkeypatch.setattr(decide, "_CATALOG_CERT_CACHE", {})
    for name in CATALOG_NAMES:
        verdict = classify(catalog_graph(name))
        assert verdict.kind == MOVABLE, name
        assert verdict.certificate.verify(verdict.reduced), name
        chain = list(_chain(verdict.certificate))
        assert (chain[-1].motion is None) != (chain[-1].axes is None), name
    assert set(decide._CATALOG_CERT_CACHE) >= {"S1", "S2", "S3", "S4"}
    for name in ("S1", "S2", "S3", "S4"):
        entry = decide._CATALOG_CERT_CACHE[name]
        assert entry.parent[1].construction == f"axes_extension:{name}"
        assert entry.parent[1].axes is not None


_VERDICT_PATH_SCRIPT = """
import sys
from movability.catalog import CATALOG_NAMES, catalog_graph
from movability.decide import MOVABLE, classify

for name in CATALOG_NAMES:
    verdict = classify(catalog_graph(name))
    assert verdict.kind == MOVABLE, name
    assert verdict.certificate.verify(verdict.reduced), name
print(sorted(m for m in sys.modules if m.startswith("movability.") or m == "numpy"))
"""


def test_the_verdict_path_never_loads_gluing():
    # a fresh interpreter, so no other test has imported gluing, the tracker
    # or numpy already
    result = subprocess.run(
        [sys.executable, "-c", _VERDICT_PATH_SCRIPT], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    loaded = ast.literal_eval(result.stdout)
    assert "movability.decide" in loaded
    assert "movability.gluing" not in loaded
    assert "movability.track" not in loaded
    assert "numpy" not in loaded


def _recipe(name):
    """An S-entry's own certificate, in the recipe's labels, and its graph."""
    host, cert = catalog_certificate(name).parent
    return host, cert, cert.axes


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4"])
def test_warm_axes_memo_still_checks_every_label(name):
    # once a verified certificate has filled the motion's memo, a label
    # changed by 10^-9 fails verify on the same motion, and so does a
    # pullback from a host certificate with that label changed
    from movability.decide import _pullback

    host, cert, axes = _recipe(name)
    assert cert.verify(host)
    assert set(axes._distances) >= set(host.edges)
    entry = catalog_certificate(name)
    target = catalog_graph(name)
    assert _pullback(target, entry.embedding, host, cert, cert.construction, {}).verify(target)
    for e, lam in cert.labeling.items():
        tampered = dataclasses.replace(cert, labeling={**cert.labeling, e: lam + Fraction(1, 10**9)})
        assert tampered.axes is axes
        assert not tampered.verify(host), e
        pullback = _pullback(target, entry.embedding, host, tampered, cert.construction, {})
        assert not pullback.verify(target), e


def test_classify_computes_each_axes_distance_once(monkeypatch):
    # cold catalog cache: every motion's pair is computed at most once
    # across dixon_one, catalog_certificate and every verify, the parent
    # chains of the pullbacks included
    from movability import decide

    computed = []
    uncached = AxesMotion._squared_distance

    def counted(self, u, v):
        computed.append((self, edge(u, v)))
        return uncached(self, u, v)

    monkeypatch.setattr(AxesMotion, "_squared_distance", counted)
    monkeypatch.setattr(decide, "_CATALOG_CERT_CACHE", {})
    for name in CATALOG_NAMES:
        verdict = classify(catalog_graph(name))
        assert verdict.kind == MOVABLE, name
        assert verdict.certificate.verify(verdict.reduced), name
    # the motions stay referenced in `computed`, so no id is reused
    counts = Counter((id(axes), pair) for axes, pair in computed)
    assert max(counts.values()) == 1
    # dixon_one's motions of K33, K34, K35 and K44 and the recipes of S1-S4
    assert len({id(axes) for axes, _ in computed}) == 8


def test_recipe_rejects_a_changed_extension_coefficient():
    host, cert, axes = _recipe("S1")
    ext = {**axes.extension, 0: {5: (Fraction(3), Fraction(0)), 4: (Fraction(-2), Fraction(0))}}
    mutant = dataclasses.replace(axes, extension=ext)
    assert mutant.squared_distance(0, 1) is None
    with pytest.raises(ConstructionInapplicable):
        mutant.labeling()
    assert not dataclasses.replace(cert, axes=mutant).verify(host)
    # S4's clique still rides rigidly on (3, 4), at other lengths
    host, cert, axes = _recipe("S4")
    ext = {**axes.extension, 6: {3: (Fraction(31, 61), Fraction(14, 61)), 4: (Fraction(30, 61), Fraction(-14, 61))}}
    mutant = dataclasses.replace(axes, extension=ext)
    assert mutant.is_proper()
    assert mutant.labeling() != cert.labeling
    assert not dataclasses.replace(cert, axes=mutant).verify(host)
    # a changed J coefficient: p6 - p3 and p6 - p4 keep their t^2 terms at
    # zero and change length only through a cross term r_k r_l
    ext = {**axes.extension, 6: {3: (Fraction(32, 61), Fraction(14, 61)), 4: (Fraction(29, 61), Fraction(14, 61))}}
    mutant = dataclasses.replace(axes, extension=ext)
    assert mutant.squared_distance(3, 6) is None
    assert mutant.squared_distance(4, 6) is None
    assert not dataclasses.replace(cert, axes=mutant).verify(host)


def test_recipe_rejects_a_flipped_sign():
    host, cert, axes = _recipe("S1")
    mutant = dataclasses.replace(axes, x_params={**axes.x_params, 3: Fraction(3, 5)})
    assert mutant.squared_distance(0, 1) is None
    assert not dataclasses.replace(cert, axes=mutant).verify(host)


def test_recipe_rejects_vertices_that_coincide_at_zero():
    # S2's vertex 3 moved onto vertex 1's parameter: every edge keeps a
    # constant length, under its own labeling too, but 1 and 3 coincide
    host, cert, axes = _recipe("S2")
    mutant = dataclasses.replace(axes, x_params={**axes.x_params, 3: Fraction(1)})
    points = mutant.positions_at_zero()
    assert points[1] == points[3]
    assert not mutant.is_proper()
    assert not dataclasses.replace(cert, axes=mutant).verify(host)
    own = MovabilityCertificate(cert.construction, mutant.labeling(), axes=mutant)
    assert not own.verify(host)


def test_classify_undecided_above_cap():
    g25 = ring_of_complete_bipartite()
    verdict = classify(g25)
    assert verdict.kind == UNDECIDED
    assert verdict.reason == "too large; use certify_no_unicolor_pairs"


# the closure-cap witness of perfbench/workload.py (CAP_WITNESS): 19 edges,
# five NAC-colorings up to conjugation, and a closure of three rounds that
# ends in K10 with 45 edges, past the default cap of 40
CAP_WITNESS = Graph.of(10, [
    (0, 1), (0, 3), (0, 4), (0, 5), (0, 7), (1, 2), (1, 3), (1, 6), (1, 8), (2, 4),
    (2, 5), (2, 8), (3, 5), (3, 7), (4, 9), (5, 7), (5, 9), (6, 8), (6, 9),
])


def test_classify_decides_a_closure_that_outgrows_the_cap():
    verdict = classify(CAP_WITNESS)  # an EnumerationCapExceeded would fail here
    assert verdict.kind == NOT_MOVABLE_CDC_COMPLETE
    assert verdict.closure_graph == Graph.of(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
    assert verdict.closure_iterations == 3


@pytest.mark.parametrize("cap", [19, 40])
def test_closure_filters_past_the_cap(cap):
    # round one enumerates the 19 edges; the later rounds only filter
    report = constant_distance_closure(CAP_WITNESS, cap=cap)
    assert report.is_complete()
    assert [len(added) for added in report.added] == [5, 15, 6]


def test_spanning_subgraph_of_catalog_entry_gets_certificate():
    s5 = catalog_graph("S5")
    # drop one edge; the result is still spanned by a Laman graph and is a
    # spanning subgraph of S5, so the catalog route must label it
    g = Graph(s5.n, s5.edges - {(6, 7)})
    from movability.pebble import spanning_laman_rank

    if spanning_laman_rank(g) == 2 * g.n - 3:
        verdict = classify(g)
        assert verdict.kind == MOVABLE
        assert verdict.certificate.verify(verdict.reduced)


# -- witness certification -----------------------------------------------------


def test_g25_witness_family():
    g25 = ring_of_complete_bipartite()
    witnesses = nac_witnesses(g25)
    assert len(witnesses) == 25
    assert all(is_nac(g25, w) for w in witnesses)
    assert certify_no_unicolor_pairs(g25, witnesses)


def test_witnesses_fail_on_unicolor_path_graph():
    g = graph_with_unicolor_path()
    full = enumerate_nac(g)
    assert not certify_no_unicolor_pairs(g, full)


def test_empty_witness_list_certifies_nothing():
    g = Graph.of(3, [(0, 1), (1, 2)])
    assert not certify_no_unicolor_pairs(g, [])


def test_invalid_witness_rejected():
    g = Graph.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    bad = NacColoring(g, frozenset({(0, 1)}))  # almost cycle
    with pytest.raises(ValueError):
        certify_no_unicolor_pairs(g, [bad])


def test_certificate_implies_empty_unicolor_pairs(rng):
    # the certificate is sound on every graph: the witnesses are NAC-colorings,
    # so a path unicolor in all of NAC(G) is unicolor in every witness too
    from movability.nac import unicolor_pairs
    from conftest import random_connected_graph

    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(3, 6), extra_edges=rng.randint(1, 4))
        full = enumerate_nac(g)
        if not full:
            continue
        if certify_no_unicolor_pairs(g, full):
            assert unicolor_pairs(g) == set()


def test_certificate_is_exact_on_every_small_graph():
    # on all connected graphs with 2-7 vertices: with the full NAC set the
    # certificate says exactly whether a unicolor pair exists, it accepts
    # every graph the incident-pair rule accepts and 171 more, and the
    # closure on the full set, conjugates included, is the default closure
    from movability.nac import unicolor_pairs
    from movability.smallgraphs import connected_graphs_up_to
    from nac_oracle import oracle_separates_incident_pairs

    graphs = [g for g in connected_graphs_up_to(7) if g.n >= 2]
    assert len(graphs) == 995
    gained = 0
    for g in graphs:
        full = enumerate_nac(g)
        certified = certify_no_unicolor_pairs(g, full)
        assert certified == (unicolor_pairs(g) == set()), encode_graph6(g)
        if oracle_separates_incident_pairs(g, full):
            assert certified, encode_graph6(g)
        elif certified:
            gained += 1
        assert constant_distance_closure(g, reps=full) == constant_distance_closure(g)
    assert gained == 171


def test_certificate_stronger_than_the_incident_pair_rule_with_triangles():
    # triangle with two tails: every NAC-coloring keeps the triangle
    # unicolor, so the incident-pair rule never separates its edges, yet no
    # unicolor path joins non-adjacent vertices and the closure adds nothing
    g = Graph.of(5, [(0, 1), (1, 2), (0, 2), (0, 4), (3, 4), (1, 3)])
    from movability.nac import unicolor_pairs
    from nac_oracle import oracle_separates_incident_pairs

    full = enumerate_nac(g)
    assert full
    assert unicolor_pairs(g) == set()
    assert not oracle_separates_incident_pairs(g, full)
    assert certify_no_unicolor_pairs(g, full)


def test_certificate_needs_a_connected_graph():
    with pytest.raises(ValueError):
        certify_no_unicolor_pairs(Graph.of(4, [(0, 1), (2, 3)]), [])


# -- Henneberg-I graphs ------------------------------------------------------------


def random_h1_graph(rng, n):
    """Henneberg-I growth from a single edge."""
    edges = [(0, 1)]
    for v in range(2, n):
        a, b = rng.sample(range(v), 2)
        edges += [(a, v), (b, v)]
    return Graph.of(n, edges)


def test_h1_graphs_have_complete_closure(rng):
    for _ in range(12):
        g = random_h1_graph(rng, rng.randint(3, 8))
        assert constant_distance_closure(g).is_complete()


# -- census ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def stream7():
    return [encode_graph6(g) for g in connected_graphs_up_to(7)]


def test_census_max6_matches_catalog_slice(stream7):
    catalog = {k: v for k, v in load_catalog().items() if v.n <= 6}
    report = census(stream7, max_n=6, catalog=catalog)
    assert report.matches_catalog
    names = {c.matched_catalog for c in report.maximal_classes()}
    assert names == {"K33", "L1"}


def test_census_max7_matches_catalog_slice(stream7):
    catalog = {k: v for k, v in load_catalog().items() if v.n <= 7}
    report = census(stream7, max_n=7, catalog=catalog)
    assert report.matches_catalog
    names = {c.matched_catalog for c in report.maximal_classes()}
    assert names == {"K33", "L1", "K34", "L2", "Q1"}
    # every surviving closure is a spanning subgraph of some maximal class
    for c in report.classes:
        assert c.maximal or c.dominated_by is not None


def test_census_empty_stream():
    report = census([], max_n=8, catalog=None)
    assert report.graphs_seen == 0
    assert report.classes == []


def test_census_max_n_reads_the_vertex_count_past_the_graph6_header():
    nine = encode_graph6(Graph.of(9, [(v, v + 1) for v in range(8)]))
    assert census([nine], max_n=8).graphs_seen == 0
    assert census([">>graph6<<" + nine], max_n=8).graphs_seen == 0
    report = census([">>graph6<<A_", "A_"], max_n=8)
    assert (report.graphs_seen, report.spanned_by_laman) == (2, 2)


def test_consistency_sweep_complete_closures(stream7, rng):
    """Closure-complete graphs are never construction-labelable: all of
    n <= 6 plus a 7-vertex sample (the constructions are the slow part)."""
    from movability.decide import _constructed_certificate
    from movability.graphs import parse_graph6, reduce_degree_two, ReductionCollapse
    from movability.pebble import spanning_laman_rank

    lines = [ln for ln in stream7 if ord(ln[0]) - 63 <= 6]
    sample7 = [ln for ln in stream7 if ord(ln[0]) - 63 == 7]
    rng.shuffle(sample7)
    for line in lines + sample7[:40]:
        g = parse_graph6(line)
        if spanning_laman_rank(g) != 2 * g.n - 3:
            continue
        try:
            reduced, _ = reduce_degree_two(g)
        except ReductionCollapse:
            continue
        reps = enumerate_nac(reduced, non_conjugated=True)
        if not reps:
            continue
        closure = constant_distance_closure(reduced)
        if not closure.is_complete():
            continue
        assert _constructed_certificate(reduced, reps) is None


def test_consistency_sweep_noncomplete_closures(stream7):
    """Every graph on up to seven vertices whose closure stays incomplete is
    certified movable; together with the complete-closure sweep this is the
    both-sides consistency of the classifier."""
    from movability.graphs import parse_graph6, reduce_degree_two, ReductionCollapse
    from movability.pebble import spanning_laman_rank

    movable = 0
    for line in stream7:
        g = parse_graph6(line)
        if spanning_laman_rank(g) != 2 * g.n - 3:
            continue
        try:
            reduced, _ = reduce_degree_two(g)
        except ReductionCollapse:
            continue
        if not enumerate_nac(reduced, non_conjugated=True):
            continue
        if constant_distance_closure(reduced).is_complete():
            continue
        verdict = classify(g)
        assert verdict.kind == MOVABLE, line
        assert verdict.certificate.verify(verdict.reduced), line
        movable += 1
    assert movable >= 10
