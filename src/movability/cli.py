"""Command-line surface for the movability pipeline.

Exit codes: 0 success, 2 malformed input, 3 enumeration cap exceeded,
4 census/catalog mismatch, 5 construction inapplicable.  Exact subcommands
take no tolerance flags; numeric ones expose the tracker defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
from fractions import Fraction
from functools import partial
from itertools import combinations

from .canon import MAX_N
from .catalog import load_catalog
from .constructions import (
    ConstructionInapplicable,
    axes_parameters,
    deltoid_motion,
    dixon_one,
    grid_search,
    motion_from_embedding,
    s5_motion,
    two_nac_embedding,
    two_nac_search,
)
from .decide import TOO_LARGE, census, classify
from .graphs import Graph, Graph6Error, encode_graph6, graph_from_json, parse_graph6
from .motion import (
    MotionError,
    active_nac_colorings,
    all_valuation_tables,
    collinear_triples,
    labeling_from_json,
    labeling_to_json,
    motion_from_json,
    motion_to_json,
    refix_edge,
    verify_injectivity,
)
from .nac import (
    EnumerationCapExceeded,
    DEFAULT_ENUMERATION_CAP,
    NacColoring,
    constant_distance_closure,
    enumerate_nac,
    is_nac,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_CENSUS = 4
EXIT_CONSTRUCTION = 5


class CliParseError(ValueError):
    pass


def _read_graph(spec: str) -> Graph:
    """graph6 literal, @file, or '-' for stdin (first line)."""
    try:
        if spec == "-":
            text = sys.stdin.readline().strip()
        elif spec.startswith("@"):
            text = pathlib.Path(spec[1:]).read_text().strip().splitlines()[0]
        else:
            text = spec
        if text.lstrip().startswith("{"):
            return graph_from_json(text)
        return parse_graph6(text)
    except (OSError, Graph6Error, ValueError, KeyError, IndexError) as exc:
        raise CliParseError(f"cannot read graph from {spec!r}: {exc}") from exc


def _read_connected_graph(spec: str) -> Graph:
    g = _read_graph(spec)
    if not g.is_connected():
        raise CliParseError(f"graph {spec!r} is not connected")
    return g


def _load(path: str, parse, what: str):
    """Parse the file at path, reporting any failure as malformed input."""
    try:
        return parse(pathlib.Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise CliParseError(f"bad {what} file {path}: {exc}") from exc


def _read_coloring(g: Graph, path: str) -> NacColoring:
    return _load(path, partial(NacColoring.from_json, g), "coloring")


def _parse_edge(spec: str) -> tuple[int, int]:
    """'u,v' with two distinct integer vertex labels."""
    try:
        u, v = (int(x) for x in spec.split(","))
    except ValueError as exc:
        raise CliParseError(f"expected an edge u,v, got {spec!r}") from exc
    if u == v:
        raise CliParseError(f"expected two distinct vertices, got {spec!r}")
    return u, v


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliParseError(f"not a rational number: {text!r}") from exc


def _print_colorings(g: Graph, colorings, fmt: str):
    if fmt == "json":
        print(json.dumps([json.loads(c.to_json()) for c in colorings], indent=2))
    else:
        edges = g.sorted_edges()
        print("edge      " + "  ".join(f"d{k}" for k in range(len(colorings))))
        for e in edges:
            row = "  ".join(
                "red " if e in c.red else "blue" for c in colorings
            )
            print(f"{str(e):9s} {row}")


def cmd_nac(args) -> int:
    if args.action == "enum":
        g = _read_connected_graph(args.graph)
        colorings = enumerate_nac(g, non_conjugated=args.non_conjugated, cap=args.cap)
        _print_colorings(g, colorings, args.format)
        return EXIT_OK
    g = _read_graph(args.graph)
    coloring = _read_coloring(g, args.coloring)
    ok = is_nac(g, coloring)
    print(json.dumps({"is_nac": ok}))
    return EXIT_OK


def cmd_cdc(args) -> int:
    g = _read_connected_graph(args.graph)
    report = constant_distance_closure(g, cap=args.cap)
    print(encode_graph6(report.closure))
    for k, added in enumerate(report.added, start=1):
        print(f"iteration {k}: added {list(added)}", file=sys.stderr)
    print(f"iterations: {report.iterations}", file=sys.stderr)
    return EXIT_OK


def cmd_classify(args) -> int:
    g = _read_connected_graph(args.graph)
    if not g.edges:
        raise CliParseError("classification needs a graph with an edge")
    verdict = classify(g, cap=args.cap)
    if verdict.reason == TOO_LARGE:
        print(verdict.to_json())
        return EXIT_CAP
    out = json.loads(verdict.to_json())
    if verdict.certificate is not None and args.out:
        files = _certificate_files(verdict.certificate.labeling, verdict.certificate.motion)
        outdir = _write_files(args.out, files)
        for name in files:
            out["certificate"][name.removesuffix(".json") + "_path"] = str(outdir / name)
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _check_max_n(max_n: int) -> None:
    if max_n < 1:
        raise CliParseError(f"--max-n must be at least 1, got {max_n}")
    if max_n > MAX_N:
        raise CliParseError(f"--max-n must be at most {MAX_N}, got {max_n}")


def cmd_census(args) -> int:
    _check_max_n(args.max_n)
    if args.jobs < 1:
        raise CliParseError(f"--jobs must be at least 1, got {args.jobs}")
    if args.graphs == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = pathlib.Path(args.graphs).read_text().splitlines()
    if args.catalog:
        paths = sorted(pathlib.Path(args.catalog).glob("*.g6"))
        if not paths:
            raise CliParseError(f"catalog {args.catalog} is not a directory holding .g6 files")
        catalog = {path.stem: parse_graph6(path.read_text().strip()) for path in paths}
    else:
        catalog = load_catalog()
    report = census(
        lines,
        max_n=args.max_n,
        catalog=catalog,
        jobs=args.jobs,
        progress=sys.stderr if args.progress else None,
    )
    text = report.to_json()
    if args.out:
        pathlib.Path(args.out).write_text(text)
    else:
        print(text)
    print(
        f"maximal classes: {len(report.maximal_classes())}, catalog match: {report.matches_catalog}",
        file=sys.stderr,
    )
    return EXIT_OK if report.matches_catalog else EXIT_CENSUS


def cmd_gen(args) -> int:
    from .smallgraphs import connected_graphs_up_to

    _check_max_n(args.max_n)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as sink:
        for g in connected_graphs_up_to(args.max_n):
            sink.write(encode_graph6(g) + "\n")
    return EXIT_OK


def _write_files(out: str, files: dict[str, str]) -> pathlib.Path:
    """Create the directory out and write each named text into it."""
    outdir = pathlib.Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (outdir / name).write_text(text)
    return outdir


def _certificate_files(labeling, motion=None) -> dict[str, str]:
    """labeling.json, and motion.json when there is a motion."""
    files = {"labeling.json": labeling_to_json(labeling)}
    if motion is not None:
        files["motion.json"] = motion_to_json(motion)
    return files


def _write_motion(args, motion, labeling) -> None:
    """Write the labeling and any motion to --out and list the directory."""
    outdir = _write_files(args.out, _certificate_files(labeling, motion))
    print(json.dumps({"out": str(outdir), "files": sorted(p.name for p in outdir.iterdir())}))


def _override_parameters(defaults: dict[int, Fraction], spec: str | None) -> dict[int, Fraction]:
    """Comma-separated values replacing the defaults, in their vertex order."""
    if not spec:
        return defaults
    values = [_fraction(s) for s in spec.split(",")]
    if len(values) != len(defaults):
        raise CliParseError("parameter counts do not match the bipartition classes")
    return dict(zip(defaults, values))


def cmd_construct(args) -> int:
    if args.method == "dixon1":
        g = _read_graph(args.graph)
        x, y = axes_parameters(g)
        x = _override_parameters(x, args.x)
        y = _override_parameters(y, args.y)
        labeling, _ = dixon_one(g, x, y)
        _write_motion(args, None, labeling)
        return EXIT_OK
    if args.method == "grid":
        if args.coloring:
            g = _read_graph(args.graph)
            colorings = [_read_coloring(g, args.coloring)]
        else:
            g = _read_connected_graph(args.graph)
            colorings = enumerate_nac(g, non_conjugated=True, cap=args.cap)
        _, _, labeling, motion = grid_search(g, colorings)
        _write_motion(args, motion, labeling)
        return EXIT_OK
    if args.method == "two-nac":
        if bool(args.first) != bool(args.second):
            raise CliParseError("--first and --second must be given together")
        if args.first:
            # colorings from files are checked; enumerated ones need not be
            g = _read_graph(args.graph)
            first, second = _read_coloring(g, args.first), _read_coloring(g, args.second)
            embedding = two_nac_embedding(g, first, second, seed=args.seed)
            motion = motion_from_embedding(embedding, deltoid_motion())
        else:
            g = _read_connected_graph(args.graph)
            pairs = combinations(enumerate_nac(g, non_conjugated=True, cap=args.cap), 2)
            _, _, embedding, motion = two_nac_search(g, pairs, seed=args.seed)
        _write_files(args.out, {"embedding.json": embedding.to_json()})
        _write_motion(args, motion, motion.induced_labeling())
        return EXIT_OK
    if args.method == "s5":
        labeling, motion = s5_motion(_fraction(args.a))
        _write_motion(args, motion, labeling)
        return EXIT_OK
    if args.method == "glue":
        from . import gluing

        recipes = {
            "s1": gluing.glued_s1,
            "s2": gluing.glued_s2,
            "s3": gluing.glued_s3,
        }
        path = recipes[args.recipe]()
        rows = ["sample," + ",".join(f"x{v},y{v}" for v in range(8))]
        for s in path.samples:
            rows.append(",".join([str(s.step), *(f"{c:.17g}" for c in s.coords.reshape(-1))]))
        files = _certificate_files(path.labeling)
        files["path.csv"] = "\n".join(rows) + "\n"
        outdir = _write_files(args.out, files)
        margin, samples = path.injectivity_margin, len(path.samples)
        print(json.dumps({"out": str(outdir), "injectivity_margin": margin, "samples": samples}))
        return EXIT_OK


def cmd_motion(args) -> int:
    if args.action == "track":
        import numpy as np

        from .track import TrackerError, track_motion

        labeling = _load(args.labeling, labeling_from_json, "labeling")
        start = _load(args.start, lambda t: np.array(json.loads(t), dtype=float), "start")
        try:
            path = track_motion(
                labeling,
                start,
                _parse_edge(args.fixed),
                steps=args.steps,
                step_size=args.step_size,
                tol=args.tol,
            )
        except TrackerError as exc:
            raise CliParseError(f"cannot track the labeling from the start: {exc}") from exc
        csv = path.to_csv()
        if args.out:
            pathlib.Path(args.out).write_text(csv)
        else:
            sys.stdout.write(csv)
        return EXIT_OK
    motion = _load(args.motion, motion_from_json, "motion")
    if args.action == "verify":
        labeling = motion.induced_labeling()
        report = verify_injectivity(motion)
        print(
            json.dumps(
                {
                    "compatible": True,
                    "trivial": motion.is_trivial(),
                    "proper": report.proper,
                    "coinciding_pairs": [list(p) for p in report.coinciding_pairs],
                    "collinear_triples": [list(t) for t in collinear_triples(motion)],
                    "labeling": json.loads(labeling_to_json(labeling)),
                },
                indent=2,
            )
        )
        return EXIT_OK
    if args.action == "valuations":
        tables = all_valuation_tables(motion)
        if args.format == "json":
            print(
                json.dumps(
                    [
                        {
                            "place": str(t.place),
                            "valuations": {f"{u},{v}": val for (u, v), val in t.values},
                        }
                        for t in tables
                    ],
                    indent=2,
                )
            )
        else:
            # a place named by its polynomial widens its column
            names = [str(t.place) for t in tables]
            widths = [max(6, len(name)) for name in names]
            header = "edge      " + "  ".join(f"{name:>{w}s}" for name, w in zip(names, widths))
            print(header)
            for e in motion.graph.sorted_edges():
                row = "  ".join(f"{t.as_dict()[e]:{w}d}" for t, w in zip(tables, widths))
                print(f"{str(e):9s} {row}")
        return EXIT_OK
    if args.action == "active-nac":
        report = active_nac_colorings(motion)
        ordered = sorted(report.colorings, key=NacColoring.sort_key)
        _print_colorings(motion.graph, ordered, args.format)
        return EXIT_OK
    if args.action == "refix":
        u, v = _parse_edge(args.edge)
        refixed = refix_edge(motion, u, v)
        text = motion_to_json(refixed)
        if args.out:
            pathlib.Path(args.out).write_text(text)
        else:
            print(text)
        return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="movability",
        description="decide and certify movability of small graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    nac = sub.add_parser("nac", help="NAC-coloring enumeration and checking")
    nac_sub = nac.add_subparsers(dest="action", required=True)
    nac_enum = nac_sub.add_parser("enum")
    nac_enum.add_argument("graph")
    nac_enum.add_argument("--non-conjugated", action="store_true")
    nac_enum.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    nac_enum.add_argument("--format", choices=("json", "table"), default="json")
    nac_check = nac_sub.add_parser("check")
    nac_check.add_argument("graph")
    nac_check.add_argument("--coloring", required=True)

    cdc = sub.add_parser("cdc", help="constant distance closure")
    cdc.add_argument("graph")
    cdc.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)

    cls = sub.add_parser("classify", help="movability verdict with certificate")
    cls.add_argument("graph")
    cls.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    cls.add_argument("--out", help="directory for certificate files")

    cen = sub.add_parser("census", help="closure census over a graph6 stream")
    cen.add_argument("--graphs", required=True, help="graph6 file or - for stdin")
    cen.add_argument("--max-n", type=int, default=8)
    cen.add_argument("--catalog", help="directory of .g6 files (default: the built-in catalog)")
    cen.add_argument("--jobs", type=int, default=1)
    cen.add_argument("--out")
    cen.add_argument("--progress", action="store_true")

    gen = sub.add_parser("gen", help="generate connected graphs up to isomorphism")
    gen.add_argument("--max-n", type=int, required=True)
    gen.add_argument("--out")

    con = sub.add_parser("construct", help="proper flexible labeling constructions")
    con_sub = con.add_subparsers(dest="method", required=True)
    c_dixon = con_sub.add_parser("dixon1")
    c_dixon.add_argument("graph")
    c_dixon.add_argument("--x", help="comma-separated parameters for the x-axis class")
    c_dixon.add_argument("--y")
    c_dixon.add_argument("--out", required=True)
    c_grid = con_sub.add_parser("grid")
    c_grid.add_argument("graph")
    c_grid.add_argument("--coloring", help="coloring JSON file (default: search)")
    c_grid.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    c_grid.add_argument("--out", required=True)
    c_two = con_sub.add_parser("two-nac")
    c_two.add_argument("graph")
    c_two.add_argument("--first")
    c_two.add_argument("--second")
    c_two.add_argument("--seed", type=int, default=0)
    c_two.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    c_two.add_argument("--out", required=True)
    c_s5 = con_sub.add_parser("s5")
    c_s5.add_argument("--a", default="2")
    c_s5.add_argument("--out", required=True)
    c_glue = con_sub.add_parser("glue")
    c_glue.add_argument("--recipe", choices=("s1", "s2", "s3"), required=True)
    c_glue.add_argument("--out", required=True)

    mot = sub.add_parser("motion", help="verification and analysis of motions")
    mot_sub = mot.add_subparsers(dest="action", required=True)
    for action in ("verify", "valuations", "active-nac"):
        mp = mot_sub.add_parser(action)
        mp.add_argument("motion")
        if action in ("valuations", "active-nac"):
            mp.add_argument("--format", choices=("json", "table"), default="table")
    m_refix = mot_sub.add_parser("refix")
    m_refix.add_argument("motion")
    m_refix.add_argument("--edge", required=True, help="u,v")
    m_refix.add_argument("--out")
    m_track = mot_sub.add_parser("track")
    m_track.add_argument("--labeling", required=True)
    m_track.add_argument("--start", required=True, help="JSON [[x,y],...] realization")
    m_track.add_argument("--fixed", required=True, help="u,v")
    m_track.add_argument("--steps", type=int, default=200)
    m_track.add_argument("--step-size", type=float, default=0.05)
    m_track.add_argument("--tol", type=float, default=1e-10)
    m_track.add_argument("--out")
    return p


_HANDLERS = {
    "nac": cmd_nac,
    "cdc": cmd_cdc,
    "classify": cmd_classify,
    "census": cmd_census,
    "gen": cmd_gen,
    "construct": cmd_construct,
    "motion": cmd_motion,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "cap", 0) < 0:
            raise CliParseError(f"--cap must be at least 0, got {args.cap}")
        return _HANDLERS[args.command](args)
    except (CliParseError, Graph6Error, MotionError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ConstructionInapplicable as exc:
        print(f"construction inapplicable: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
