"""The movability pipeline: classifier, witnesses, census.

Pipeline, in order: graphs without a spanning Laman subgraph are generically
movable; degree-two vertices are stripped (movability-invariant); no
NAC-coloring means no flexible labeling at all; a complete constant distance
closure refutes movability; otherwise the constructions are attempted
cheapest first and a verified labeling is returned as the certificate.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Iterable

from .canon import canonical_form, find_spanning_embedding
from .catalog import catalog_graph
from .constructions import (
    AxesMotion,
    ConstructionInapplicable,
    axes_parameters,
    axes_recipe,
    dixon_one,
    grid_search,
    s5_graph_motion_labels,
    s5_motion,
    two_nac_search,
)
from .exact import _fraction_str
from .graphs import (
    Graph,
    edge,
    encode_graph6,
    parse_graph6,
    reduce_degree_two,
)
from .motion import Labeling, ParametrizedMotion, verify_injectivity
from .nac import (
    EnumerationCapExceeded,
    DEFAULT_ENUMERATION_CAP,
    NacColoring,
    constant_distance_closure,
    enumerate_nac,
    is_nac,
    lite_closure_is_complete,
)
from .pebble import has_spanning_laman

GENERICALLY_MOVABLE = "GENERICALLY_MOVABLE"
NOT_MOVABLE_NO_NAC = "NOT_MOVABLE_NO_NAC"
NOT_MOVABLE_CDC_COMPLETE = "NOT_MOVABLE_CDC_COMPLETE"
MOVABLE = "MOVABLE"
UNDECIDED = "UNDECIDED"
TOO_LARGE = "too large; use certify_no_unicolor_pairs"  # UNDECIDED past the cap: CLI exit 3


@dataclass
class MovabilityCertificate:
    """A proper flexible labeling plus its exact evidence.

    Constructions carry a parametrized motion (grid, two-NAC, S5) or an axes
    motion (the axes construction and S1-S4); labelings pulled back from a
    catalog entry carry the entry's certificate and the spanning embedding.
    `verify` re-checks the evidence with no float.  The labeling always
    refers to the graph the verdict is about.
    """

    construction: str
    labeling: Labeling
    motion: ParametrizedMotion | None = None
    axes: AxesMotion | None = None
    parent: "tuple[Graph, MovabilityCertificate] | None" = None
    embedding: list[int] | None = None
    details: dict = field(default_factory=dict)

    def verify(self, g: Graph) -> bool:
        if set(self.labeling) != set(g.edges):
            return False
        if any(v <= 0 for v in self.labeling.values()):
            return False
        if self.motion is not None:
            if self.motion.graph != g or self.motion.induced_labeling() != dict(self.labeling):
                return False
            if self.motion.is_trivial():
                return False
            return verify_injectivity(self.motion).proper
        if self.axes is not None:
            # exact; an edge whose length changes has squared distance None,
            # which equals no label
            axes = self.axes
            if axes.graph != g or not axes.is_proper():
                return False
            return all(axes.squared_distance(u, v) == lam for (u, v), lam in self.labeling.items())
        if self.parent is not None and self.embedding is not None:
            # a spanning subgraph of a movable graph inherits the restricted
            # labeling: check the embedding and the pullback, then verify the
            # parent's own evidence
            parent_graph, parent_cert = self.parent
            phi = self.embedding
            if len(phi) != g.n or sorted(phi) != list(range(parent_graph.n)):
                return False
            for u, v in g.edges:
                e = edge(phi[u], phi[v])
                if e not in parent_graph.edges:
                    return False
                if self.labeling[(u, v)] != parent_cert.labeling[e]:
                    return False
            return parent_cert.verify(parent_graph)
        return False


@dataclass
class Verdict:
    kind: str
    reason: str | None = None
    certificate: MovabilityCertificate | None = None
    reduced: Graph | None = None
    removed_vertices: tuple[int, ...] = ()
    closure_graph: Graph | None = None
    closure_iterations: int = 0

    def to_json(self) -> str:
        data: dict = {"verdict": self.kind}
        if self.reason:
            data["reason"] = self.reason
        if self.reduced is not None:
            data["reduced_graph6"] = encode_graph6(self.reduced)
        if self.removed_vertices:
            data["removed_vertices"] = list(self.removed_vertices)
        if self.closure_graph is not None:
            data["closure_graph6"] = encode_graph6(self.closure_graph)
            data["closure_iterations"] = self.closure_iterations
        if self.certificate is not None:
            cert: dict = {
                "construction": self.certificate.construction,
                "lambda_sq": {
                    f"{u},{v}": _fraction_str(q)
                    for (u, v), q in sorted(self.certificate.labeling.items())
                },
            }
            cert.update(self.certificate.details)
            data["certificate"] = cert
        return json.dumps(data, indent=2)


def _constructed_certificate(g: Graph, reps: list[NacColoring]) -> MovabilityCertificate | None:
    """The first of the axes, grid and two-NAC constructions, cheapest first,
    that applies to g; the grid and two-NAC searches try reps in order."""
    with suppress(ConstructionInapplicable):
        x, y = axes_parameters(g)
        labeling, axes = dixon_one(g, x, y)
        return MovabilityCertificate(
            construction="dixon_one",
            labeling=labeling,
            axes=axes,
            details={
                "x_params": {str(v): str(q) for v, q in x.items()},
                "y_params": {str(v): str(q) for v, q in y.items()},
            },
        )
    with suppress(ConstructionInapplicable):
        coloring, points, labeling, motion = grid_search(g, reps)
        return MovabilityCertificate(
            construction="grid",
            labeling=labeling,
            motion=motion,
            details={
                "coloring_red": sorted(coloring.red),
                "grid_points": list(points),
            },
        )
    with suppress(ConstructionInapplicable):
        first, second, emb, motion = two_nac_search(g, combinations(reps, 2))
        return MovabilityCertificate(
            construction="two_nac",
            labeling=motion.induced_labeling(),
            motion=motion,
            details={
                "pair_red": [sorted(first.red), sorted(second.red)],
                "embedding": [[str(c) for c in p] for p in emb.points],
            },
        )
    return None


# the catalog entries no general construction reaches
_RECIPE_ENTRIES = ("S1", "S2", "S3", "S4", "S5")


def _pullback(
    g: Graph,
    phi: list[int],
    host: Graph,
    host_cert: MovabilityCertificate,
    construction: str,
    details: dict,
) -> MovabilityCertificate:
    """Restrict a host certificate to g along the spanning embedding phi.

    The host's evidence stays attached to the host graph and is reached
    through the parent chain during verification."""
    labeling = {
        (u, v): host_cert.labeling[edge(phi[u], phi[v])] for u, v in g.sorted_edges()
    }
    return MovabilityCertificate(
        construction=construction,
        labeling=labeling,
        parent=(host, host_cert),
        embedding=phi,
        details=details,
    )


_CATALOG_CERT_CACHE: dict[str, MovabilityCertificate] = {}


def catalog_certificate(name: str) -> MovabilityCertificate:
    """Certificate of the catalog entry S1..S5 (cached), from its bespoke
    route, pulled back from the recipe's vertex labels to the entry's.  It
    is not verified here: `classify` verifies every pullback from it, and
    through the pullback's parent chain this certificate and the recipe's
    own.  Every other entry is certified by `classify`'s constructions, so
    any other name raises ValueError."""
    if name not in _RECIPE_ENTRIES:
        raise ValueError(f"{name!r} is not a recipe entry (S1..S5)")
    if name in _CATALOG_CERT_CACHE:
        return _CATALOG_CERT_CACHE[name]
    if name == "S5":
        labeling, motion = s5_motion(Fraction(2))
        source = s5_graph_motion_labels()
        cert = MovabilityCertificate(
            construction="closed_form:S5", labeling=labeling, motion=motion
        )
    else:
        axes = axes_recipe(name)
        source = axes.graph
        cert = MovabilityCertificate(
            construction=f"axes_extension:{name}", labeling=axes.labeling(), axes=axes
        )
    target = catalog_graph(name)
    phi = find_spanning_embedding(target, source)
    if phi is None:
        raise RuntimeError(f"recipe graph for {name} is not isomorphic to the catalog entry")
    cert = _pullback(target, phi, source, cert, cert.construction, {"catalog_vertex_map": phi})
    _CATALOG_CERT_CACHE[name] = cert
    return cert


def _catalog_lookup(g: Graph) -> MovabilityCertificate | None:
    """Pullback from the first recipe entry g spans; a construction certifies
    whatever the other entries span (acceptance criterion 3, n <= 8)."""
    for name in _RECIPE_ENTRIES:
        entry = catalog_graph(name)
        phi = find_spanning_embedding(g, entry)
        if phi is None:
            continue
        entry_cert = catalog_certificate(name)
        details = {"catalog_entry": name, "embedding": phi, "via": entry_cert.construction}
        return _pullback(g, phi, entry, entry_cert, f"catalog:{name}", details)
    return None


def classify(g: Graph, *, cap: int = DEFAULT_ENUMERATION_CAP) -> Verdict:
    """Decide movability of a connected graph, with a certificate when movable.

    The MOVABLE verdict always carries a labeling produced by a construction,
    with its exact motion or axes motion (directly or through the catalog
    entry it is pulled back from); UNDECIDED is an honest outcome for graphs
    beyond the enumeration cap or outside every construction's reach.
    """
    if not g.is_connected() or not g.edges:
        raise ValueError("classification needs a connected graph with an edge")
    if not has_spanning_laman(g):
        return Verdict(kind=GENERICALLY_MOVABLE, reason="no spanning Laman subgraph")
    reduced, kept = reduce_degree_two(g)
    removed = tuple(v for v in range(g.n) if v not in kept)
    reduced_verdict = partial(Verdict, reduced=reduced, removed_vertices=removed)
    try:
        reps = enumerate_nac(reduced, non_conjugated=True, cap=cap)
    except EnumerationCapExceeded:
        return reduced_verdict(UNDECIDED, reason=TOO_LARGE)
    if not reps:
        return reduced_verdict(NOT_MOVABLE_NO_NAC)
    closure = constant_distance_closure(reduced, cap=cap, reps=reps)
    closure_verdict = partial(
        reduced_verdict, closure_graph=closure.closure, closure_iterations=closure.iterations
    )
    if closure.is_complete():
        return closure_verdict(NOT_MOVABLE_CDC_COMPLETE)
    cert = _constructed_certificate(reduced, reps) or _catalog_lookup(reduced)
    if cert is None:
        return closure_verdict(UNDECIDED, reason="no construction applies")
    if not cert.verify(reduced):
        raise RuntimeError(
            f"certificate from {cert.construction} failed verification; refusing to emit it"
        )
    return closure_verdict(MOVABLE, certificate=cert)


# -- witness certification for graphs beyond the enumeration cap -------------


def nac_witnesses(g: Graph) -> list[NacColoring]:
    """The single-vertex star family: edges at w blue, everything else red."""
    out = []
    for w in range(g.n):
        red = frozenset(e for e in g.edges if w not in e)
        out.append(NacColoring(g, red))
    return out


def certify_no_unicolor_pairs(g: Graph, witnesses: Iterable[NacColoring]) -> bool:
    """True when the constant distance closure run on the witnesses adds
    nothing, which certifies that g has no unicolor pair.

    The witnesses are NAC-colorings of g, so a subset of NAC(G).  Fewer
    colorings give coarser signature classes, so a path that is unicolor in
    every NAC-coloring is unicolor in every witness too.  If the closure's
    first round under the witnesses adds nothing, its first round under
    NAC(G) adds nothing either: no enumeration is needed and no cap applies.
    A disconnected g raises ValueError, as `unicolor_pairs` does.
    """
    listed = list(witnesses)
    for witness in listed:
        if witness.graph != g:
            raise ValueError("witness colors a different graph")
        if not is_nac(g, witness):
            raise ValueError(f"witness with red class {sorted(witness.red)[:4]}... is not a NAC-coloring")
    return not constant_distance_closure(g, reps=listed).added


# -- census --------------------------------------------------------------------


@dataclass
class CensusClass:
    canonical: str
    closure_graph6: str
    n: int
    edges: int
    sources: int
    iterations_max: int
    maximal: bool = False
    matched_catalog: str | None = None
    dominated_by: str | None = None


@dataclass
class CensusReport:
    max_n: int
    graphs_seen: int
    spanned_by_laman: int
    survivors: int
    classes: list[CensusClass]
    matches_catalog: bool | None

    def maximal_classes(self) -> list[CensusClass]:
        return [c for c in self.classes if c.maximal]

    def to_json(self) -> str:
        return json.dumps(
            {
                "max_n": self.max_n,
                "graphs_seen": self.graphs_seen,
                "spanned_by_laman": self.spanned_by_laman,
                "survivors": self.survivors,
                "matches_catalog": self.matches_catalog,
                "classes": [
                    {
                        "canonical": c.canonical,
                        "closure_graph6": c.closure_graph6,
                        "n": c.n,
                        "edges": c.edges,
                        "sources": c.sources,
                        "iterations_max": c.iterations_max,
                        "verdict": "maximal" if c.maximal else "dominated",
                        "matched_catalog": c.matched_catalog,
                        "dominated_by": c.dominated_by,
                    }
                    for c in self.classes
                ],
            },
            indent=2,
        )


def _census_worker(line: str) -> tuple[bool, Graph | None, int]:
    """(spanned by a Laman graph, closure if kept, closure rounds)."""
    g = parse_graph6(line)
    if not has_spanning_laman(g):  # which implies that g is connected
        return False, None, 0
    if lite_closure_is_complete(g):  # a complete closure is not kept
        return True, None, 0
    closure = constant_distance_closure(g)
    keep = not closure.is_complete() and 2 not in closure.closure.degrees()
    return True, closure.closure if keep else None, closure.iterations


def census(
    lines: Iterable[str],
    *,
    max_n: int = 8,
    catalog: dict[str, Graph] | None = None,
    jobs: int = 1,
    progress=None,
) -> CensusReport:
    """Closure census over a graph6 stream.

    Lines with more than max_n vertices are skipped; the count is read past
    the optional ``>>graph6<<`` header.  Each line is parsed into a graph
    built from adjacency masks alone, and only the enumeration and the
    classes read an edge set.  Filters to graphs with a spanning Laman
    subgraph (`has_spanning_laman`: its edge-count and degree screens on the
    masks, then `spanning_laman_rank`, whose Henneberg sweep answers most
    graphs before the pebble game runs on the masks of the rest), discards
    closures that are complete or keep a degree-two vertex, groups the rest
    by isomorphism and keeps the classes maximal under spanning-subgraph
    containment.  A pre-pass, `lite_closure_is_complete`, discards most
    complete closures from vertex sets grown from neighbourhood components
    alone; NAC-colorings are enumerated and `constant_distance_closure` is
    run only on the spanned graphs it leaves (152 of the 6,629 up to 8
    vertices), so every kept class and its ``iterations_max`` come from the
    real closure.  With a catalog, asserts the maximal classes match it
    exactly.  More than one job runs a pool of at most as many workers as
    there are CPUs; a single worker runs in this process.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    # the vertex count is the first byte after the optional graph6 header; a
    # line that is only the header stays, so that parsing it reports the error
    lines = [ln.strip().removeprefix(">>graph6<<") for ln in lines if ln.strip()]
    lines = [ln for ln in lines if not ln or ord(ln[0]) - 63 <= max_n]
    seen = 0
    spanned = 0
    closures: dict[str, CensusClass] = {}
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_census_worker, lines, chunksize=64)
    else:
        results = map(_census_worker, lines)
    for k, (ok, closure, iters) in enumerate(results):
        seen += 1
        if progress and k % 500 == 0:
            print(f"census: {k}/{len(lines)}", file=progress, flush=True)
        if not ok:
            continue
        spanned += 1
        if closure is None:
            continue
        key = canonical_form(closure)
        entry = closures.get(key)
        if entry is None:
            closures[key] = CensusClass(
                canonical=key,
                closure_graph6=encode_graph6(closure),
                n=closure.n,
                edges=len(closure.edges),
                sources=1,
                iterations_max=iters,
            )
        else:
            entry.sources += 1
            entry.iterations_max = max(entry.iterations_max, iters)
    classes = sorted(closures.values(), key=lambda c: (c.n, -c.edges, c.canonical))
    class_graphs = {c.canonical: parse_graph6(c.canonical) for c in classes}
    for c in classes:
        rep = class_graphs[c.canonical]
        dominating = None
        for other in classes:
            if other is c or other.n != c.n or other.edges <= c.edges:
                continue
            host = class_graphs[other.canonical]
            if find_spanning_embedding(rep, host) is not None:
                dominating = other.canonical
                break
        c.maximal = dominating is None
        c.dominated_by = dominating
    matches: bool | None = None
    if catalog is not None:
        catalog_keys = {canonical_form(graph): name for name, graph in catalog.items()}
        for c in classes:
            c.matched_catalog = catalog_keys.get(c.canonical)
        maximal_keys = {c.canonical for c in classes if c.maximal}
        matches = maximal_keys == set(catalog_keys)
    return CensusReport(
        max_n=max_n,
        graphs_seen=seen,
        spanned_by_laman=spanned,
        survivors=sum(c.sources for c in classes),
        classes=classes,
        matches_catalog=matches,
    )
