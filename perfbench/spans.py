"""Span recorder that times the layers of movability from outside the package.

Tracing works by rebinding names: each wrapped function is replaced in its
defining module and in every ``movability.*`` module that imported it by
name (``decide.enumerate_nac``, ``smallgraphs.canonical_form``, ...), so the
package's own calls go through the wrapper.  A wrapper opens a span (name,
start, end, parent, operation id), keeps it in memory and bumps counters at
the same boundary.  ``uninstall`` restores every original binding.  Nothing
here runs unless a recorder is installed: an untraced pass never imports
this module's wrappers into the package.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

VERDICT_KINDS = (
    "GENERICALLY_MOVABLE",
    "NOT_MOVABLE_NO_NAC",
    "NOT_MOVABLE_CDC_COMPLETE",
    "MOVABLE",
    "UNDECIDED",
)


# -- counters taken at span boundaries ----------------------------------------
# before(counts, args) runs before the call, result(counts, value, args) after
# it returns, error(counts, exc) when it raises; item(counts, value) per yield


def _spanned(counts, rank, args):
    g = args[0]
    if rank == 2 * g.n - 3:
        counts["pebble.spanned"] += 1


def _colorings(counts, reps, args):
    counts["nac.colorings"] += len(reps)


def _rounds(counts, report, args):
    counts["nac.closure_rounds"] += report.iterations


def _census_report(counts, report, args):
    counts["decide.survivors"] += report.survivors
    counts["decide.classes"] += len(report.classes)
    counts["decide.maximal"] += len(report.maximal_classes())


def _verdict(counts, verdict, args):
    counts[f"decide.verdict.{verdict.kind}"] += 1


def _classify_raised(counts, exc):
    counts["decide.classify.raised"] += 1


def _catalog_build(counts, args):
    decide = sys.modules["movability.decide"]
    if args[0] not in decide._CATALOG_CERT_CACHE:
        counts["decide.catalog_certificate.builds"] += 1


def _inapplicable(prefix):
    def hook(counts, exc):
        if type(exc).__name__ == "ConstructionInapplicable":
            counts[f"{prefix}.inapplicable"] += 1

    return hook


def _samples(counts, path, args):
    counts["track.samples"] += len(path.samples)


def _track_error(counts, exc):
    if type(exc).__name__ == "TrackerError":
        counts["track.errors"] += 1


def _graph(counts, item):
    counts["smallgraphs.graphs"] += 1


# (span name, module, attribute, hooks); a dotted attribute names a method
WRAPPED = (
    ("smallgraphs", "smallgraphs", "connected_graphs_up_to", {"item": _graph}),
    ("canon.canonical_form", "canon", "canonical_form", {}),
    ("canon.find_spanning_embedding", "canon", "find_spanning_embedding", {}),
    ("pebble.spanning_laman_rank", "pebble", "spanning_laman_rank", {"result": _spanned}),
    ("nac.enumerate_nac", "nac", "enumerate_nac", {"result": _colorings}),
    ("nac.unicolor_pairs", "nac", "unicolor_pairs", {}),
    ("nac.constant_distance_closure", "nac", "constant_distance_closure", {"result": _rounds}),
    ("nac.is_nac", "nac", "is_nac", {}),
    ("graphs.parse_graph6", "graphs", "parse_graph6", {}),
    ("graphs.reduce_degree_two", "graphs", "reduce_degree_two", {}),
    ("decide.census", "decide", "census", {"result": _census_report}),
    ("decide.classify", "decide", "classify", {"result": _verdict, "error": _classify_raised}),
    ("decide.catalog_certificate", "decide", "catalog_certificate", {"before": _catalog_build}),
    ("decide.certificate_verify", "decide", "MovabilityCertificate.verify", {}),
    ("constructions.grid_construction", "constructions", "grid_construction",
     {"error": _inapplicable("constructions.grid_construction")}),
    ("constructions.two_nac_embedding", "constructions", "two_nac_embedding",
     {"error": _inapplicable("constructions.two_nac_embedding")}),
    ("constructions.motion_from_embedding", "constructions", "motion_from_embedding", {}),
    ("constructions.s5_motion", "constructions", "s5_motion", {}),
    ("constructions.dixon_one", "constructions", "dixon_one", {}),
    ("gluing.recipe", "gluing", "glued_s1", {}),
    ("gluing.recipe", "gluing", "glued_s2", {}),
    ("gluing.recipe", "gluing", "glued_s3", {}),
    ("gluing.recipe", "gluing", "extended_s4", {}),
    ("gluing.glue_labelings", "gluing", "glue_labelings", {}),
    ("track.track_motion", "track", "track_motion", {"result": _samples, "error": _track_error}),
    ("motion.w_function", "motion", "w_function", {}),
    ("motion.candidate_places", "motion", "candidate_places", {}),
    ("motion.valuation_table", "motion", "valuation_table", {}),
    ("motion.active_nac_colorings", "motion", "active_nac_colorings", {}),
    ("motion.refix_edge", "motion", "refix_edge", {}),
    ("motion.verify_injectivity", "motion", "verify_injectivity", {}),
    ("motion.json", "motion", "motion_to_json", {}),
    ("motion.json", "motion", "motion_from_json", {}),
    ("exact.gaussian_rational_roots", "exact", "gaussian_rational_roots", {}),
    ("ratfunc.valuation", "ratfunc", "valuation", {}),
    ("catalog.load_catalog", "catalog", "load_catalog", {}),
)

# per-layer metrics: (name, unit), in the order BENCHMARK.json lists them
_CALLS_AND_SELF = (
    "canon.canonical_form", "canon.find_spanning_embedding", "pebble.spanning_laman_rank",
    "nac.enumerate_nac", "nac.unicolor_pairs", "nac.constant_distance_closure", "nac.is_nac",
    "graphs.parse_graph6", "graphs.reduce_degree_two",
    "constructions.grid_construction", "constructions.two_nac_embedding",
    "gluing.recipe", "gluing.glue_labelings", "track.track_motion",
    "motion.w_function", "motion.valuation_table", "motion.refix_edge",
    "exact.gaussian_rational_roots", "ratfunc.valuation",
)
_SELF_ONLY = (
    "constructions.motion_from_embedding", "constructions.s5_motion", "constructions.dixon_one",
    "decide.certificate_verify", "motion.candidate_places", "motion.active_nac_colorings",
    "motion.verify_injectivity", "motion.json", "catalog.load_catalog",
)
_CALLS_ONLY = ("decide.classify", "decide.catalog_certificate")
_COUNTS = (
    "smallgraphs.graphs", "pebble.spanned", "nac.colorings", "nac.closure_rounds",
    "decide.survivors", "decide.classes", "decide.maximal", "decide.classify.raised",
    "decide.catalog_certificate.builds",
    "constructions.grid_construction.inapplicable", "constructions.two_nac_embedding.inapplicable",
    "track.samples", "track.errors",
) + tuple(f"decide.verdict.{kind}" for kind in VERDICT_KINDS)


def layer_metric_units() -> dict[str, str]:
    units: dict[str, str] = {"smallgraphs.self_s": "s", "decide.census.self_s": "s"}
    for name in _CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in _SELF_ONLY:
        units[f"{name}.s"] = "s"
    for name in _CALLS_ONLY:
        units[f"{name}.calls"] = "count"
    for name in _COUNTS:
        units[name] = "count"
    units["canon.kept_ratio"] = "ratio"
    units["constructions.two_nac_useful_ratio"] = "ratio"
    return units


class Recorder:
    """In-memory spans and counters for one pass.

    A span is (name, start, end, parent index, operation id); the operation
    id is set by the workload before each timed public call, so spans of
    one request share it.
    """

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.op = -1
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn, hooks: dict):
        before, on_result, on_error = hooks.get("before"), hooks.get("result"), hooks.get("error")
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, args)
            idx = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                self._close(idx, name, start)
            if on_result is not None:
                on_result(counts, result, args)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn, hooks: dict):
        # one span per resume, so work done by the consumer between items is
        # not charged to the generator
        on_item = hooks["item"]
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open()
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx, name, start)
                on_item(counts, item)
                yield item

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        for name, module_name, attr, hooks in WRAPPED:
            module = importlib.import_module(f"movability.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                self._patch(cls, meth, self._wrap(name, original, hooks))
                continue
            original = getattr(module, attr)
            make = self._wrap_generator if "item" in hooks else self._wrap
            wrapper = make(name, original, hooks)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "movability" or mod_name.startswith("movability.")):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)

    def _patch(self, owner, binding: str, wrapper) -> None:
        self._patches.append((owner, binding, getattr(owner, binding)))
        setattr(owner, binding, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, binding, original = self._patches.pop()
            setattr(owner, binding, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: number of spans and summed self time.

        Self time is a span's duration minus the durations of its direct
        children; calls are strictly nested, so the children cover disjoint
        parts of the parent's interval.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
        return calls, self_s

    def layer_metrics(self) -> dict[str, float]:
        calls, self_s = self.self_times()
        units = layer_metric_units()
        out: dict[str, float] = {}
        for metric in units:
            if metric in ("smallgraphs.self_s", "decide.census.self_s"):
                out[metric] = self_s[metric[: -len(".self_s")]]
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[: -len(".calls")]]
            elif metric.endswith(".s"):
                out[metric] = self_s[metric[: -len(".s")]]
            else:
                out[metric] = self.counts[metric]
        # graphs kept / canonical forms computed during generation
        in_generation = sum(
            1
            for name, _s, _e, parent, _op in self.spans
            if name == "canon.canonical_form" and parent >= 0 and self.spans[parent][0] == "smallgraphs"
        )
        out["canon.kept_ratio"] = self.counts["smallgraphs.graphs"] / in_generation if in_generation else 0.0
        attempts = calls["constructions.two_nac_embedding"]
        useful = attempts - self.counts["constructions.two_nac_embedding.inapplicable"]
        out["constructions.two_nac_useful_ratio"] = useful / attempts if attempts else 0.0
        return out

    def write(self, path) -> None:
        """JSON lines: one header line, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"pass": self.pass_id, "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
