"""Run a fixed corpus of `movability` command lines against one source tree.

    python3 tools/cli_corpus.py run SRC_DIR OUT.json
    python3 tools/cli_corpus.py certs SRC_DIR OUT.json
    python3 tools/cli_corpus.py compare BEFORE.json AFTER.json

`run` executes every case in a fresh temporary directory with
PYTHONPATH=SRC_DIR and records, per command, the exit code, stdout, stderr
(or, when it holds a traceback, only that it does), and the contents of
every file the case wrote.  `certs` records, for every catalog entry, the
certificate SRC_DIR builds for it: `decide.catalog_certificate` for the
recipe entries S1-S5, and `decide.classify`'s for the other 16.  A record
holds the construction, labeling, details, motion JSON, the axes motion
(signed axis parameters and extension coefficients, as exact strings),
embedding and the parent chain, so no float is rounded by the record.
The README's 8-vertex `gen` + `census --jobs 4` pair alone takes about a
minute on 2 cores.  For each grid and two-NAC catalog entry, one case
refixes the motion its `classify --out` writes to every edge, so the
refix output of every classify-built motion is recorded, exit 2 of the
edges of irrational length included.  Malformed-input cases live in tests/test_cli.py; the
only ones here are `--max-n` values below 1, which trees before the bound
accepted (exit 0 for `gen`, 4 for `census`).  `compare` (of two `run` or two `certs` outputs) prints the cases whose records differ and exits nonzero
when any does.  Comparing the runs of two commits shows whether a refactor
kept the command-line output byte-identical.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

def cases() -> list[tuple[str, list[list[str]]]]:
    from movability.catalog import (
        CATALOG_NAMES,
        catalog_graph,
        graph_with_unicolor_path,
        graph_without_nac,
        movable_seven_vertex_graph,
        ring_of_complete_bipartite,
    )
    from movability.graphs import Graph, encode_graph6

    g6 = {name: encode_graph6(catalog_graph(name)) for name in CATALOG_NAMES}
    for name, build in (("no-nac", graph_without_nac), ("unicolor", graph_with_unicolor_path),
                        ("movable7", movable_seven_vertex_graph)):
        g6[name] = encode_graph6(build())
    readme = [
        ["nac", "enum", "Cl"],
        ["nac", "check", "Cl", "--coloring", "c.json"],
        ["cdc", "FLr@w"],
        ["classify", "FLr@w", "--out", "cert/"],
        ["motion", "verify", "cert/motion.json"],
        ["motion", "valuations", "cert/motion.json"],
        ["motion", "active-nac", "cert/motion.json", "--format", "json"],
        ["motion", "refix", "cert/motion.json", "--edge", "1,2"],
        ["motion", "track", "--labeling", "lab.json", "--start", "start.json", "--fixed", "0,1"],
        ["construct", "dixon1", "EFz_", "--out", "out/"],
        ["construct", "grid", "ElNG", "--out", "out/"],
        ["construct", "two-nac", "FLr@w", "--seed", "0", "--out", "out/"],
        ["construct", "s5", "--a", "2", "--out", "out/"],
        ["construct", "glue", "--recipe", "s1", "--out", "out/"],
    ]
    out = [
        ("readme", readme),
        ("readme-census-8", [["gen", "--max-n", "8", "--out", "graphs.g6"],
                             ["census", "--graphs", "graphs.g6", "--max-n", "8", "--jobs", "4"]]),
    ]
    for name, code in g6.items():
        out.append((f"classify-{name}", [["classify", code]]))
        out.append((f"classify-out-{name}", [["classify", code, "--out", "cert/"]]))
        out.append((f"nac-enum-{name}", [["nac", "enum", code], ["nac", "enum", code, "--non-conjugated"]]))
        out.append((f"cdc-{name}", [["cdc", code]]))
    # the grid and two-NAC entries, whose classify writes a motion: it is
    # refixed to every edge, and an edge of irrational length exits 2
    for name in (*(f"L{i}" for i in range(1, 7)), *(f"Q{i}" for i in range(1, 7))):
        out.append((f"refix-{name}", [
            ["classify", g6[name], "--out", "cert/"],
            *(["motion", "refix", "cert/motion.json", "--edge", f"{u},{v}"]
              for u, v in catalog_graph(name).sorted_edges()),
        ]))
    out.append(("cdc-G25-cap", [["cdc", encode_graph6(ring_of_complete_bipartite())]]))
    # 19 edges whose closure grows to K10, past the enumeration cap of 40;
    # only round one enumerates, so both commands report a complete closure
    witness = encode_graph6(Graph.of(10, [
        (0, 1), (0, 3), (0, 4), (0, 5), (0, 7), (1, 2), (1, 3), (1, 6), (1, 8), (2, 4),
        (2, 5), (2, 8), (3, 5), (3, 7), (4, 9), (5, 7), (5, 9), (6, 8), (6, 9),
    ]))
    out.append(("classify-cap-witness", [["classify", witness]]))
    out.append(("cdc-cap-witness", [["cdc", witness]]))
    # the only graphs with at most 8 vertices that reach the catalog lookup
    # as proper spanning subgraphs of an entry (two of S2, one of S4)
    for code in ("Gs`z?s", "G{`XGs", "G{`_ww"):
        out.append((f"classify-pullback-{code}", [["classify", code]]))
    for seed in range(4):
        out.append((f"two-nac-seed-{seed}", [["construct", "two-nac", "FLr@w", "--seed", str(seed), "--out", "out/"]]))

    def queries(path):
        return [["motion", "verify", path],
                ["motion", "valuations", path],
                ["motion", "valuations", path, "--format", "json"],
                ["motion", "active-nac", path],
                ["motion", "active-nac", path, "--format", "json"]]

    out += [
        ("dixon-params", [["construct", "dixon1", "EFz_", "--x", "1,2,3", "--y", "3/2,5,7", "--out", "out/"]]),
        ("dixon-bad-count", [["construct", "dixon1", "EFz_", "--x", "1,2", "--out", "out/"]]),
        ("dixon-triangle", [["construct", "dixon1", "Bw", "--out", "out/"]]),
        ("grid-inapplicable", [["construct", "grid", g6["unicolor"], "--out", "out/"]]),
        ("two-nac-inapplicable", [["construct", "two-nac", "Cl", "--out", "out/"]]),
        # S1: every pair fails in the solve; the S2 pairs pin the solver's two messages
        ("two-nac-S1", [["construct", "two-nac", g6["S1"], "--out", "out/"]]),
        ("two-nac-S2-coincide", [["construct", "two-nac", g6["S2"], "--first", "s2-0.json",
                                  "--second", "s2-1.json", "--out", "out/"]]),
        ("two-nac-S2-zero", [["construct", "two-nac", g6["S2"], "--first", "s2-0.json",
                              "--second", "s2-10.json", "--out", "out/"]]),
        # one coloring twice fills two direction classes only: the empty-class
        # message, ahead of the NAC check, for a file-given pair
        ("two-nac-S2-same-pair", [["construct", "two-nac", g6["S2"], "--first", "s2-0.json",
                                   "--second", "s2-0.json", "--out", "out/"]]),
        *((f"glue-{r}", [["construct", "glue", "--recipe", r, "--out", "out/"]]) for r in ("s1", "s2", "s3")),
        *((f"s5-a-{a}", [["construct", "s5", "--a", a, "--out", "out/"]]) for a in ("1", "2", "3")),
        # a non-integer shape parameter, and its motion pinned at another edge
        ("s5-a-7/2", [["construct", "s5", "--a", "7/2", "--out", "out/"],
                      ["motion", "refix", "out/motion.json", "--edge", "3,4", "--out", "out/refixed.json"]]),
        # a refix of a refix: the second starts from the first one's file, and
        # the twice-refixed motion, with the corpus's largest denominators, is queried
        ("s5-a-7/2-twice", [["construct", "s5", "--a", "7/2", "--out", "out/"],
                            ["motion", "refix", "out/motion.json", "--edge", "3,4", "--out", "out/refixed.json"],
                            ["motion", "refix", "out/refixed.json", "--edge", "5,7", "--out", "out/twice.json"],
                            *queries("out/twice.json")]),
        ("census-6", [["gen", "--max-n", "6", "--out", "graphs.g6"],
                      ["census", "--graphs", "graphs.g6", "--max-n", "6", "--out", "report.json"]]),
        ("gen-max-n-negative", [["gen", "--max-n", "-3"]]),
        ("gen-max-n-0", [["gen", "--max-n", "0"]]),
        ("census-max-n-negative", [["gen", "--max-n", "3", "--out", "graphs.g6"],
                                   ["census", "--graphs", "graphs.g6", "--max-n", "-1"]]),
    ]
    # each motion is queried as built and again after pinning another edge
    for name, construct, unpinned in (("grid", ["grid", "ElNG"], "1,2"),
                                      ("two-nac", ["two-nac", "FLr@w", "--seed", "0"], "1,2"),
                                      ("s5", ["s5", "--a", "2"], "3,4")):
        out.append((f"motion-{name}", [
            ["construct", *construct, "--out", "out/"], *queries("out/motion.json"),
            ["motion", "refix", "out/motion.json", "--edge", unpinned, "--out", "out/refixed.json"],
            *queries("out/refixed.json"),
        ]))
    # the one motion with a coinciding pair: Q1 with vertex 0 duplicated
    out.append(("motion-improper", [["motion", "verify", "improper.json"],
                                    ["motion", "valuations", "improper.json"],
                                    ["motion", "active-nac", "improper.json"]]))
    # the one motion with places that are not points: the roots of two
    # quadratics that do not split over Q(i)
    out.append(("motion-unresolved", queries("unresolved.json")))
    return out


def input_files() -> dict[str, str]:
    from movability.catalog import catalog_graph, q1_embedding_example
    from movability.constructions import deltoid_motion, motion_from_embedding, two_nac_embedding
    from movability.exact import Poly
    from movability.graphs import Graph
    from movability.motion import ParametrizedMotion, labeling_to_json, motion_to_json
    from movability.nac import NacColoring, enumerate_nac
    from movability.ratfunc import RationalFunction

    motion = deltoid_motion().motion
    # the Q1 two-NAC motion plus vertex 7, a copy of vertex 0 joined to 0's neighbours
    g, first_red, second_red = q1_embedding_example()
    emb = two_nac_embedding(g, NacColoring(g, first_red), NacColoring(g, second_red), seed=0)
    q1 = motion_from_embedding(emb, deltoid_motion())
    dup = Graph.of(g.n + 1, [*g.edges, *((v, g.n) for v in range(g.n) if (0, v) in g.edges)])
    improper = ParametrizedMotion(dup, q1.fixed_edge, (*q1.coords, q1.coords[0]))
    # the path 0-1-2 with z2 = 1 + p/conj(p), p = t^2 + i t + 1 of discriminant
    # -5: neither p nor conj(p) has a root in Q(i)
    p = Poly.of([1, (0, 1), 1])
    zs = (RationalFunction.const(0), RationalFunction.const(1),
          RationalFunction.const(1) + RationalFunction.of(p, p.conjugate_coeffs()))
    unresolved = ParametrizedMotion(Graph.of(3, [(0, 1), (1, 2)]), (0, 1), zs)
    s2 = enumerate_nac(catalog_graph("S2"), non_conjugated=True)
    return {
        "lab.json": labeling_to_json(motion.induced_labeling()),
        "start.json": json.dumps(motion.realize_float(1.0)),
        "improper.json": motion_to_json(improper),
        "unresolved.json": motion_to_json(unresolved),
        **{f"s2-{i}.json": s2[i].to_json() for i in (0, 1, 10)},
    }


def run_case(case, files: dict[str, str], env: dict) -> tuple[str, dict]:
    name, steps = case
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for fname, text in files.items():
            (root / fname).write_text(text)
        records = []
        for argv in steps:
            if argv[:2] == ["nac", "check"]:
                enum = subprocess.run([sys.executable, "-m", "movability.cli", "nac", "enum", "Cl"],
                                      cwd=tmp, env=env, capture_output=True, text=True)
                (root / "c.json").write_text(json.dumps(json.loads(enum.stdout)[0]))
            proc = subprocess.run([sys.executable, "-m", "movability.cli", *argv],
                                  cwd=tmp, env=env, capture_output=True, text=True)
            traceback = "Traceback" in proc.stderr
            # a traceback names the source tree's paths, so only its presence is kept
            records.append({"argv": argv, "code": proc.returncode, "stdout": proc.stdout,
                            "stderr": None if traceback else proc.stderr, "traceback": traceback})
        written = {str(p.relative_to(root)): p.read_text() for p in sorted(root.rglob("*")) if p.is_file()}
        return name, {"steps": records, "files": written}


def run(src: str, out: str) -> None:
    src = str(pathlib.Path(src).resolve())
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)
    files = input_files()
    with ThreadPoolExecutor(2) as pool:
        results = dict(pool.map(lambda case: run_case(case, files, env), cases()))
    pathlib.Path(out).write_text(json.dumps(results, indent=1, sort_keys=True))
    print(f"{len(results)} cases written to {out}")


def cert_record(cert) -> dict:
    from movability.graphs import encode_graph6
    from movability.motion import labeling_to_json, motion_to_json

    parent = None
    if cert.parent is not None:
        host, host_cert = cert.parent
        parent = {"graph6": encode_graph6(host), "certificate": cert_record(host_cert)}
    # a tree from before axes motions carries the axes parameters as a
    # `sampler` with no extension
    axes = getattr(cert, "axes", None) or getattr(cert, "sampler", None)
    if axes is not None:
        axes = {
            "x": {str(v): str(q) for v, q in axes.x_params.items()},
            "y": {str(v): str(q) for v, q in axes.y_params.items()},
            "extension": {
                str(v): {str(w): [str(a), str(b)] for w, (a, b) in combination.items()}
                for v, combination in getattr(axes, "extension", {}).items()
            },
        }
    return {
        "construction": cert.construction,
        "labeling": labeling_to_json(cert.labeling),
        "details": json.dumps(cert.details, sort_keys=True, default=repr),
        "motion": None if cert.motion is None else motion_to_json(cert.motion),
        "axes": axes,
        "embedding": cert.embedding,
        "parent": parent,
    }


def certs(src: str, out: str) -> None:
    sys.path.insert(0, str(pathlib.Path(src).resolve()))
    from movability.catalog import CATALOG_NAMES, catalog_graph
    from movability.decide import catalog_certificate, classify

    results = {}
    for name in CATALOG_NAMES:
        if name.startswith("S"):
            cert = catalog_certificate(name)
        else:
            cert = classify(catalog_graph(name)).certificate
        results[name] = None if cert is None else cert_record(cert)
    pathlib.Path(out).write_text(json.dumps(results, indent=1, sort_keys=True))
    print(f"{len(results)} catalog certificates written to {out}")


def compare(before: str, after: str) -> int:
    a = json.loads(pathlib.Path(before).read_text())
    b = json.loads(pathlib.Path(after).read_text())
    differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(a.keys() | b.keys()) - len(differ)} identical, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "certs":
        certs(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
