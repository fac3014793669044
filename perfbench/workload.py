"""One pass of one workload, run in a fresh interpreter by run.py.

    python3 perfbench/workload.py --workload classify-mix --seed 3 --t0 <monotonic>

Imports movability, loads the catalog (the set-up a command-line user pays
on every call), builds the workload's inputs from the seed, times each
public call, then checks the outputs outside the timed region.  Prints one
JSON object on its last line.  With --spans the pass is traced through
spans.Recorder and the span list is written to that file.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import random
import signal
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# -- pinned expectations --------------------------------------------------------
# Counts that do not depend on vertex labels, hence not on the seed.

CENSUS_EXPECTED = {
    # full: the paper's n <= 8 census; smoke: n <= 6 against the n <= 6 entries
    "full": {"max_n": 8, "graphs_seen": 12112, "spanned": 6629, "survivors": 83,
             "classes": 32, "maximal": 21, "matches_catalog": True},
    "smoke": {"max_n": 6, "graphs_seen": 142, "spanned": 53, "survivors": 2,
              "classes": 2, "maximal": 2, "matches_catalog": True},
}

CLASSIFY_SIZES = {
    # catalog entries used (None: all 21), random graphs per (n, m) stratum,
    # the least corpus size (p95 needs ten samples beyond it), and the
    # verdicts of the one-edge-deleted catalog subgraphs, one per isomorphism class
    "full": {"catalog": None, "random_n": range(6, 11), "per_stratum": 6, "min_corpus": 200,
             "deletions": {"GENERICALLY_MOVABLE": 42, "MOVABLE": 45}},
    "smoke": {"catalog": ("K33", "L1", "L2", "Q1"), "random_n": range(6, 8), "per_stratum": 1,
              "min_corpus": 0, "deletions": {"GENERICALLY_MOVABLE": 10, "MOVABLE": 2}},
}

TRIPTYCH_EXPECTED = {
    "no_nac": "NOT_MOVABLE_NO_NAC",
    "closure_k7": "NOT_MOVABLE_CDC_COMPLETE",
    "movable": "MOVABLE",
}

# A 10-vertex Laman-plus graph whose closure reaches K10 (45 edges, over the
# default enumeration cap of 40): classify lets EnumerationCapExceeded escape
# from the closure step instead of answering UNDECIDED.  Known defect, kept so
# every pass shows it; it is counted as a failed operation, not an error of
# the benchmark.
CAP_WITNESS = (10, ((0, 1), (0, 3), (0, 4), (0, 5), (0, 7), (1, 2), (1, 3), (1, 6), (1, 8),
                    (2, 4), (2, 5), (2, 8), (3, 5), (3, 7), (4, 9), (5, 7), (5, 9), (6, 8), (6, 9)))

# criterion 1: valuations of the deltoid's edge functions at +-i and +-2i
# (W scales linearly with the deltoid's scale, so valuations do not depend on it)
DELTOID_TABLE = {
    (0, -1): {(0, 1): 0, (1, 2): 0, (2, 3): 1, (0, 3): 1},
    (0, 1): {(0, 1): 0, (1, 2): 0, (2, 3): -1, (0, 3): -1},
    (0, -2): {(0, 1): 0, (1, 2): 1, (2, 3): 0, (0, 3): 1},
    (0, 2): {(0, 1): 0, (1, 2): -1, (2, 3): 0, (0, 3): -1},
}
DELTOID_ACTIVE = {
    frozenset({(2, 3), (0, 3)}), frozenset({(0, 1), (1, 2)}),
    frozenset({(1, 2), (0, 3)}), frozenset({(0, 1), (2, 3)}),
}
ACTIVE_SIZES = {"deltoid": 4, "q1": 4, "s5": 6}
EXACT_MOTIONS = {"full": ("deltoid", "q1", "s5"), "smoke": ("deltoid", "q1")}
REFIXED_QUERIED = 2  # refixed motions per motion whose active set is recomputed


def speed_kernel() -> None:
    """Fixed interpreter work of the package's kind: tuple-keyed dict inserts,
    small Fraction arithmetic, a sort."""
    table = {}
    q = Fraction(1)
    for i in range(60):
        table[(i, i % 7)] = i
        q = q * Fraction(i % 5 + 1, 3) / Fraction(i % 5 + 1, 3)
    sorted(table)


class SpeedProbe:
    """Samples how fast this interpreter runs, to take the machine's noise out
    of the times.

    The cores of the machine the benchmark was built on are shared: the same
    pure-Python work takes up to a third longer in some seconds than in
    others, in CPU time as well as wall time, and on each core independently,
    so nothing measured outside the pass can correct for it.  While a probe
    is active a SIGALRM handler runs ``speed_kernel`` every INTERVAL seconds
    in the measured process itself.  ``normalize`` scales an operation's time
    by KERNEL_NOMINAL_S over the mean kernel time around it and leaves out the
    time the probe itself took: the seconds the operation would have taken
    at the reference speed.  The probe costs about 1 % of a pass.
    """

    INTERVAL = 0.05
    KERNEL_NOMINAL_S = 0.0006  # median kernel time, 2-core x86-64 sandbox, Python 3.11.7
    NEAR = 0.5  # operations shorter than the sampling interval use samples this close

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._sampling = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        if self._sampling:  # a tick that arrives during a sample is dropped
            return
        self._sampling = True
        if self.recorder is not None:
            # its own span, so the probe is not charged to the interrupted layer
            idx = self.recorder._open()
        start = perf_counter()
        speed_kernel()
        self.starts.append(start)
        self.ends.append(perf_counter())
        if self.recorder is not None:
            self.recorder._close(idx, "probe", start)
        self._sampling = False

    def normalize(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        probe = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        lo = bisect.bisect_left(self.starts, start - self.NEAR)
        hi = bisect.bisect_left(self.starts, end + self.NEAR)
        if hi == lo:
            raise RuntimeError("no speed sample near an operation; is SIGALRM blocked?")
        kernel = sum(self.ends[i] - self.starts[i] for i in range(lo, hi)) / (hi - lo)
        return (end - start - probe) * self.KERNEL_NOMINAL_S / kernel


class Timer:
    """Times public calls one at a time; a call that raises is a failed operation.

    Use inside ``with timer.probe:``; latencies are normalized by the probe
    once the pass is over.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.probe = SpeedProbe(recorder)
        self.calls: list[tuple[str, float, float, bool]] = []  # (phase, start, end, ok)

    def call(self, phase: str, fn, *args, **kwargs):
        """Return (ok, value or exception)."""
        if self.recorder is not None:
            self.recorder.op = len(self.calls)
        start = perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # any exception is a failed operation
            self.calls.append((phase, start, perf_counter(), False))
            return False, exc
        self.calls.append((phase, start, perf_counter(), True))
        return True, value

    @property
    def latencies(self) -> list[tuple[str, float, bool]]:
        """(phase, normalized seconds, ok) per call."""
        return [(p, self.probe.normalize(s, e), ok) for p, s, e, ok in self.calls]

    def raw_total(self) -> float:
        return sum(e - s for _p, s, e, _ok in self.calls)

    def total(self, phase: str | None = None) -> float:
        return sum(s for p, s, _ok in self.latencies if phase is None or p == phase)

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return sum(1 for _p, _s, _e, ok in self.calls if not ok)


@contextmanager
def recording(recorder):
    """Install the recorder's wrappers for the timed region only."""
    if recorder is None:
        yield
        return
    recorder.install()
    try:
        yield
    finally:
        recorder.uninstall()


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def relabeled(g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


# -- census-n8 ---------------------------------------------------------------------


def census_pass(seed: int, size: str, catalog: dict, recorder) -> dict:
    # public calls go through module attributes, so an installed recorder sees them
    from movability import decide, smallgraphs
    from movability.graphs import encode_graph6

    expected = CENSUS_EXPECTED[size]
    max_n = expected["max_n"]
    timer = Timer(recorder)

    def generate():
        graphs = []
        for g in smallgraphs.connected_graphs_up_to(max_n):
            encode_graph6(g)
            graphs.append(g)
        return graphs

    with recording(recorder), timer.probe:
        ok, graphs = timer.call("stage1", generate)
    report = None
    if ok:
        rng = random.Random(seed)
        rng.shuffle(graphs)
        lines = [encode_graph6(relabeled(g, rng)) for g in graphs]
        entries = {name: g for name, g in catalog.items() if g.n <= max_n}
        with recording(recorder), timer.probe:
            ok, report = timer.call("stage2", decide.census, lines, max_n=max_n, catalog=entries, jobs=1)
        if not ok:
            report = None
    observed = None
    if report is not None:
        observed = {
            "max_n": max_n,
            "graphs_seen": report.graphs_seen,
            "spanned": report.spanned_by_laman,
            "survivors": report.survivors,
            "classes": len(report.classes),
            "maximal": len(report.maximal_classes()),
            "matches_catalog": report.matches_catalog,
        }
    return {
        "timer": timer,
        "stage1_s": timer.total("stage1"),
        "stage2_s": timer.total("stage2"),
        "problems": check_census(observed, expected),
        "signature": observed,
        "summary": observed,
    }


def check_census(observed: dict | None, expected: dict) -> list[str]:
    if observed is None:
        return ["census produced no report"]
    return [
        f"census {key}: got {observed.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if observed.get(key) != want
    ]


# -- classify-mix ------------------------------------------------------------------


# Random graphs with more non-conjugate NAC-colorings than S2 (22, the most of
# any catalog entry) are redrawn.  The two-NAC search tries every pair of
# colorings, so one such graph can take minutes (a 10-vertex, 17-edge draw
# with 78 took 27-58 s) and break the run's time limit; about one draw in
# several hundred is redrawn.  The pair search itself stays measured by S2,
# S3 and their deletion classes.
RANDOM_NAC_LIMIT = 22


def random_connected_graph(rng: random.Random, n: int, m: int):
    """Random recursive tree plus m - (n - 1) distinct extra edges."""
    from movability.graphs import Graph
    from movability.nac import enumerate_nac

    while True:
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        rng.shuffle(spare)
        edges.update(spare[: m - len(edges)])
        g = Graph.of(n, edges)
        if len(enumerate_nac(g, non_conjugated=True)) <= RANDOM_NAC_LIMIT:
            return g


def deletion_classes(catalog: dict, names) -> list[tuple[str, object]]:
    """One connected one-edge-deleted subgraph per isomorphism class."""
    from movability.canon import canonical_form
    from movability.graphs import Graph

    seen: set[str] = set()
    out = []
    for name in names:
        g = catalog[name]
        for e in sorted(g.edges):
            h = Graph(g.n, g.edges - {e})
            if not h.is_connected():
                continue
            key = canonical_form(h)
            if key not in seen:
                seen.add(key)
                out.append((name, h))
    return out


def classify_corpus(seed: int, size: str, catalog: dict) -> list[tuple[str, str, object]]:
    """(group, label, graph) in pass order, built from the seed.

    The catalog entries run first, so the cold catalog certificates are
    built by the entries themselves; then the triptych, the deletion classes
    and the cap witness in one shuffled stream; then the random graphs, which
    set the median, in one block.  Catalog entries, triptych, witness and
    random graphs are relabeled by the seed.  The deletion classes keep the
    labels the catalog edge lists give them: two-NAC and grid searches try
    colorings in label order, so relabeling them moves the tail of the
    latency distribution from seed to seed, and a fixed composition and
    labeling keeps it steady.
    """
    from movability.catalog import (
        graph_with_unicolor_path,
        graph_without_nac,
        movable_seven_vertex_graph,
    )
    from movability.graphs import Graph

    spec = CLASSIFY_SIZES[size]
    names = spec["catalog"] or tuple(catalog)
    rng = random.Random(seed)
    entries = [("catalog", name, relabeled(catalog[name], rng)) for name in names]
    rest = [
        ("triptych", "no_nac", relabeled(graph_without_nac(), rng)),
        ("triptych", "closure_k7", relabeled(graph_with_unicolor_path(), rng)),
        ("triptych", "movable", relabeled(movable_seven_vertex_graph(), rng)),
        ("cap_witness", "n10", relabeled(Graph.of(*CAP_WITNESS), rng)),
        *(("deletion", name, h) for name, h in deletion_classes(catalog, names)),
    ]
    randoms = []
    for n in spec["random_n"]:
        for m in range(2 * n - 3, 2 * n + 3):
            for k in range(spec["per_stratum"]):
                randoms.append(("random", f"n{n}m{m}#{k}", relabeled(random_connected_graph(rng, n, m), rng)))
    for group in (entries, rest, randoms):
        rng.shuffle(group)
    return entries + rest + randoms


def classify_pass(seed: int, size: str, catalog: dict, recorder) -> dict:
    from movability import decide

    corpus = classify_corpus(seed, size, catalog)
    timer = Timer(recorder)
    outcomes = []
    with recording(recorder), timer.probe:
        for _group, _label, g in corpus:
            outcomes.append(timer.call("classify", decide.classify, g))
    # everything below is outside the timed region
    results = []
    for (group, label, g), (ok, value) in zip(corpus, outcomes):
        if ok:
            cert_ok = None
            if value.kind == "MOVABLE" and group in ("catalog", "triptych"):
                cert_ok = bool(value.certificate.verify(value.reduced))
            results.append((group, label, value.kind, cert_ok))
        else:
            results.append((group, label, f"raised:{type(value).__name__}", None))
    timed = timer.latencies
    latencies = [s if ok else math.inf for _p, s, ok in timed]
    group_s = Counter()
    for (group, _label, _g), (_p, s, _ok) in zip(corpus, timed):
        group_s[group] += s
    counts = Counter((group, kind) for group, _label, kind, _c in results)
    signature = {f"{group}/{kind}": n for (group, kind), n in sorted(counts.items())}
    p50, p95 = nearest_rank(latencies, 0.50), nearest_rank(latencies, 0.95)
    return {
        "timer": timer,
        "stage1_s": group_s["catalog"],
        "stage2_s": p95,
        "problems": check_classify(results, CLASSIFY_SIZES[size]),
        "signature": signature,
        "summary": {
            "corpus": len(corpus),
            "graphs_per_s": len(corpus) / timer.total(),
            "p50_ms": 1000 * p50,
            "p95_ms": 1000 * p95,
            "beyond_p95": sum(1 for s in latencies if s > p95),
            "verdicts": signature,
            "group_s": dict(group_s),
        },
    }


def check_classify(results: list, spec: dict) -> list[str]:
    """results: (group, label, verdict or 'raised:<Exception>', certificate re-verified)."""
    problems = []
    if len(results) < spec["min_corpus"]:
        problems.append(f"corpus has {len(results)} graphs, expected at least {spec['min_corpus']}")
    for group, label, kind, cert_ok in results:
        if group == "catalog" and kind != "MOVABLE":
            problems.append(f"catalog entry {label}: {kind}, expected MOVABLE")
        if group == "triptych" and kind != TRIPTYCH_EXPECTED[label]:
            problems.append(f"triptych {label}: {kind}, expected {TRIPTYCH_EXPECTED[label]}")
        if kind == "MOVABLE" and group in ("catalog", "triptych") and cert_ok is not True:
            problems.append(f"{group} {label}: certificate does not re-verify")
        if group == "random" and kind.startswith("raised:") and kind != "raised:EnumerationCapExceeded":
            problems.append(f"random graph {label}: {kind}")
    got = Counter(kind for group, _l, kind, _c in results if group == "deletion")
    if dict(got) != spec["deletions"]:
        problems.append(f"deletion classes {dict(got)}, expected {spec['deletions']}")
    return problems


# -- exact-motion ------------------------------------------------------------------


def exact_inputs(seed: int) -> dict:
    # odd halves, so the Fractions the motions carry are of like size from
    # seed to seed and the seed does not change how much arithmetic a pass does
    rng = random.Random(seed)
    return {
        "scale": Fraction(2 * rng.randint(0, 4) + 1, 2),
        "s5_a": Fraction(2 * rng.randint(1, 4) + 1, 2),
        "rng": rng,
    }


def exact_pass(seed: int, size: str, catalog: dict, recorder) -> dict:
    from movability import constructions, motion
    from movability.catalog import q1_embedding_example
    from movability.nac import NacColoring

    inputs = exact_inputs(seed)
    rng = inputs["rng"]
    q1_graph, first_red, second_red = q1_embedding_example()
    first, second = NacColoring(q1_graph, first_red), NacColoring(q1_graph, second_red)

    def q1_motion():
        emb = constructions.two_nac_embedding(q1_graph, first, second)
        return constructions.motion_from_embedding(emb, constructions.deltoid_motion(inputs["scale"]))

    builders = {
        "deltoid": lambda: constructions.deltoid_motion(inputs["scale"]).motion,
        "q1": q1_motion,
        "s5": lambda: constructions.s5_motion(inputs["s5_a"])[1],
    }
    timer = Timer(recorder)
    out: dict[str, dict] = {}
    with recording(recorder), timer.probe:
        for name in EXACT_MOTIONS[size]:
            ok, m = timer.call("build", builders[name])
            if not ok:
                continue
            refixed = []
            for e in sorted(m.graph.edges):
                ok, r = timer.call("build", motion.refix_edge, m, *e)
                if ok:
                    refixed.append(r)
            ok, back = timer.call("build", lambda m=m: motion.motion_from_json(motion.motion_to_json(m)))
            queried = rng.sample(range(len(refixed)), min(REFIXED_QUERIED, len(refixed)))
            record = {"motion": m, "refixed": refixed, "json": back if ok else None,
                      "refixed_active": {}}
            for key, fn in (("injectivity", motion.verify_injectivity), ("places", motion.candidate_places),
                            ("tables", motion.all_valuation_tables), ("active", motion.active_nac_colorings)):
                ok, value = timer.call("query", fn, m)
                record[key] = value if ok else None
            for i in queried:
                ok, value = timer.call("query", motion.active_nac_colorings, refixed[i])
                record["refixed_active"][i] = value if ok else None
            out[name] = record
    observed = summarize_motions(out)
    return {
        "timer": timer,
        "stage1_s": timer.total("build"),
        "stage2_s": timer.total("query"),
        "problems": check_motions(observed, EXACT_MOTIONS[size]),
        "signature": {name: obs["active_size"] for name, obs in observed.items()},
        "summary": {"scale": str(inputs["scale"]), "s5_a": str(inputs["s5_a"]),
                    "active_sizes": {name: obs["active_size"] for name, obs in observed.items()}},
    }


def summarize_motions(out: dict) -> dict:
    """Reduce each motion's outputs to plain facts the checks compare."""
    observed = {}
    for name, rec in out.items():
        m = rec["motion"]
        labeling = m.induced_labeling()
        active = {c.red for c in rec["active"].colorings} if rec["active"] else None
        tables = None
        if rec["tables"] is not None:
            tables = {
                (t.place.point.re, t.place.point.im): t.as_dict()
                for t in rec["tables"]
                if not t.place.is_infinity
            }
        observed[name] = {
            "edges": len(m.graph.edges),
            "proper": rec["injectivity"].proper if rec["injectivity"] else None,
            "active_size": len(active) if active is not None else None,
            "active": active,
            "tables": tables,
            "refixed": len(rec["refixed"]),
            "refix_labelings_kept": all(r.induced_labeling() == labeling for r in rec["refixed"]),
            "refixed_active_kept": all(
                value is not None and {c.red for c in value.colorings} == active
                for value in rec["refixed_active"].values()
            ),
            "json_kept": rec["json"] is not None and rec["json"].coords == m.coords
            and rec["json"].induced_labeling() == labeling,
        }
    return observed


def check_motions(observed: dict, names) -> list[str]:
    problems = []
    for name in names:
        obs = observed.get(name)
        if obs is None:
            problems.append(f"{name}: motion was not built")
            continue
        if obs["proper"] is not True:
            problems.append(f"{name}: motion is not proper")
        if obs["active_size"] != ACTIVE_SIZES[name]:
            problems.append(f"{name}: {obs['active_size']} active colorings, expected {ACTIVE_SIZES[name]}")
        if obs["refixed"] != obs["edges"]:
            problems.append(f"{name}: refixed {obs['refixed']} of {obs['edges']} edges")
        if not obs["refix_labelings_kept"]:
            problems.append(f"{name}: a refix changed the labeling")
        if not obs["refixed_active_kept"]:
            problems.append(f"{name}: a refix changed the active set")
        if not obs["json_kept"]:
            problems.append(f"{name}: JSON round trip changed the motion")
    deltoid = observed.get("deltoid")
    if deltoid is not None:
        if deltoid["active"] != DELTOID_ACTIVE:
            problems.append("deltoid: active colorings differ from criterion 1")
        tables = deltoid["tables"] or {}
        for place, rows in DELTOID_TABLE.items():
            if tables.get(place) != rows:
                problems.append(f"deltoid: valuations at {place} are {tables.get(place)}, expected {rows}")
    return problems


WORKLOADS = {
    "census-n8": census_pass,
    "classify-mix": classify_pass,
    "exact-motion": exact_pass,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--spans", help="trace the pass and write its spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import movability  # noqa: F401  (set-up: the package import)

    recorder = None
    if args.spans:
        import spans

        recorder = spans.Recorder(args.pass_id)
    from movability import catalog as catalog_module

    with recording(recorder):
        catalog = catalog_module.load_catalog()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        import platform

        import numpy

        print(json.dumps({"setup_s": setup_s, "python": platform.python_version(), "numpy": numpy.__version__}))
        return 0

    result = WORKLOADS[args.workload](args.seed, args.size, catalog, recorder)
    timer = result.pop("timer")
    out = {
        "setup_s": setup_s,
        "stage1_s": result["stage1_s"],
        "stage2_s": result["stage2_s"],
        "pass_s": timer.total(),
        "raw_pass_s": timer.raw_total(),
        "speed_samples": len(timer.probe.starts),
        "attempted": timer.attempted,
        "failed": timer.failed,
        "problems": result["problems"],
        "signature": result["signature"],
        "summary": result["summary"],
    }
    if recorder is not None:
        out["layers"] = recorder.layer_metrics()
        recorder.write(args.spans)
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
