import json
import subprocess
import sys
from fractions import Fraction

import pytest

from movability.cli import main
from movability.catalog import catalog_graph, graph_with_unicolor_path
from movability.graphs import encode_graph6

from conftest import color, unresolved_motion


Q1 = encode_graph6(catalog_graph("Q1"))
C4 = "Cl"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nac_enum_four_cycle(capsys):
    code, out, _ = run(["nac", "enum", C4], capsys)
    assert code == 0
    assert len(json.loads(out)) == 6


def test_nac_enum_no_nac_graph(capsys):
    # 7-vertex graph with no NAC-coloring: empty list, still exit 0
    from movability.catalog import graph_without_nac

    code, out, _ = run(["nac", "enum", encode_graph6(graph_without_nac())], capsys)
    assert code == 0
    assert json.loads(out) == []


def test_nac_check_bad_coloring_file(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text('{"edges": [[0,1]], "colors": ["red"]}')
    code, _, err = run(["nac", "check", C4, "--coloring", str(bad)], capsys)
    assert code == 2


def test_parse_failure_exit_code(capsys):
    code, _, err = run(["cdc", "~~~"], capsys)
    assert code == 2


def test_cap_exit_code(capsys):
    code, _, err = run(["nac", "enum", C4, "--cap", "2"], capsys)
    assert code == 3


def test_cdc_of_k2(capsys):
    code, out, err = run(["cdc", "A_"], capsys)
    assert code == 0
    assert out.strip() == "A_"
    assert "iterations: 0" in err


def test_cdc_of_unicolor_path_graph(capsys):
    from movability.catalog import graph_with_unicolor_path

    code, out, err = run(["cdc", encode_graph6(graph_with_unicolor_path())], capsys)
    assert code == 0
    from movability.graphs import parse_graph6

    assert parse_graph6(out.strip()).is_complete()


def test_classify_verdicts(capsys):
    cases = [
        (
            encode_graph6(graph_with_unicolor_path()),
            "NOT_MOVABLE_CDC_COMPLETE",
            {"reduced_graph6": "FxMQW", "closure_graph6": "F~~~w", "closure_iterations": 2},
        ),
        (C4, "GENERICALLY_MOVABLE", {"reason": "no spanning Laman subgraph"}),
        # K4 plus vertex 4 joined to 0 and 3: the degree-two vertex goes first
        ("D~c", "NOT_MOVABLE_NO_NAC", {"reduced_graph6": "C~", "removed_vertices": [4]}),
    ]
    for graph, verdict, extra in cases:
        code, out, _ = run(["classify", graph], capsys)
        assert code == 0
        assert json.loads(out) == {"verdict": verdict, **extra}


def test_classify_past_the_cap_exits_3_with_its_verdict(capsys):
    from itertools import combinations

    from movability.decide import TOO_LARGE
    from movability.graphs import Graph

    k10 = encode_graph6(Graph.of(10, combinations(range(10), 2)))
    code, out, _ = run(["classify", k10], capsys)
    assert code == 3
    assert json.loads(out) == {"verdict": "UNDECIDED", "reason": TOO_LARGE, "reduced_graph6": k10}


@pytest.mark.parametrize("red, expected", [([[0, 1], [2, 3]], True), ([[0, 1]], False)])
def test_nac_check_prints_the_verdict(red, expected, tmp_path, capsys):
    edges = [[0, 1], [0, 3], [1, 2], [2, 3]]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"edges": edges, "colors": ["red" if e in red else "blue" for e in edges]}))
    code, out, _ = run(["nac", "check", C4, "--coloring", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"is_nac": expected}


def test_graph_specs_from_a_file_and_stdin(tmp_path, monkeypatch, capsys):
    import io

    (tmp_path / "g.g6").write_text(f"{Q1}\nCl\n")
    _, literal, _ = run(["classify", Q1], capsys)
    code, from_file, _ = run(["classify", f"@{tmp_path / 'g.g6'}"], capsys)
    assert code == 0 and from_file == literal
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{Q1}\n"))
    code, from_stdin, _ = run(["classify", "-"], capsys)
    assert code == 0 and from_stdin == literal
    _, report, _ = run(["census", "--graphs", str(tmp_path / "g.g6"), "--max-n", "7"], capsys)
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{Q1}\nCl\n"))
    _, piped, _ = run(["census", "--graphs", "-", "--max-n", "7"], capsys)
    assert json.loads(piped) == json.loads(report)
    assert json.loads(piped)["graphs_seen"] == 2


def test_classify_writes_certificates(tmp_path, capsys):
    outdir = tmp_path / "cert"
    code, out, _ = run(["classify", Q1, "--out", str(outdir)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "MOVABLE"
    assert (outdir / "labeling.json").exists()
    assert (outdir / "motion.json").exists()


def test_certificate_reverifies_in_separate_process(tmp_path):
    outdir = tmp_path / "cert"
    subprocess.run(
        [sys.executable, "-m", "movability.cli", "classify", Q1, "--out", str(outdir)],
        check=True,
        capture_output=True,
    )
    result = subprocess.run(
        [sys.executable, "-m", "movability.cli", "motion", "verify", str(outdir / "motion.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["compatible"] and report["proper"] and not report["trivial"]


def test_classify_command_never_loads_numpy():
    # a fresh interpreter, so no other test has imported numpy already
    script = (
        "import sys\n"
        "from movability.cli import main\n"
        "assert main(['classify', 'FLr@w']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_construct_s5_and_valuations(tmp_path, capsys):
    outdir = tmp_path / "s5"
    code, out, _ = run(["construct", "s5", "--a", "2", "--out", str(outdir)], capsys)
    assert code == 0
    lab = json.loads((outdir / "labeling.json").read_text())
    by_edge = dict(zip(map(tuple, lab["edges"]), lab["lambda_sq"]))
    assert by_edge[(0, 4)] == "9/25"
    assert by_edge[(3, 4)] == "64/25"
    code, out, _ = run(
        ["motion", "valuations", str(outdir / "motion.json"), "--format", "json"],
        capsys,
    )
    assert code == 0


def test_construct_grid_rejection_exit_code(capsys):
    from movability.catalog import graph_with_unicolor_path

    code, _, err = run(
        [
            "construct",
            "grid",
            encode_graph6(graph_with_unicolor_path()),
            "--out",
            "/tmp/unused-grid",
        ],
        capsys,
    )
    assert code == 5
    assert "share grid cell" in err


def test_construct_dixon_on_triangle_fails(capsys):
    code, _, err = run(["construct", "dixon1", "Bw", "--out", "/tmp/unused-dixon"], capsys)
    assert code == 5


def test_construct_dixon_with_coinciding_vertices_fails(tmp_path, capsys):
    # x-parameters 1, 1 put vertices 0 and 1 at (sqrt(1 - t^2), 0) for every t
    out = tmp_path / "out"
    code, _, err = run(["construct", "dixon1", "EFz_", "--x", "1,1,2", "--out", str(out)], capsys)
    assert code == 5
    assert "not proper" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("recipe", ["s1", "s2", "s3"])
def test_construct_glue_writes_labeling_and_path(recipe, tmp_path, capsys):
    out = tmp_path / "out"
    code, printed, _ = run(["construct", "glue", "--recipe", recipe, "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(printed)
    assert report["out"] == str(out) and report["samples"] == 60
    assert report["injectivity_margin"] > 0
    assert (out / "labeling.json").exists()
    rows = (out / "path.csv").read_text().splitlines()
    assert rows[0].startswith("sample,x0,y0") and len(rows) == 1 + 60


def test_refix_on_an_edge_of_irrational_length_exits_2(tmp_path, capsys):
    # the path 0-1-2 with z1 = 1 and z2 = 1 + (1 + i)E: edge (1, 2) has length sqrt(2)
    from movability.constructions import unit_circle
    from movability.exact import GaussianRational
    from movability.graphs import Graph
    from movability.motion import ParametrizedMotion, motion_to_json
    from movability.ratfunc import RationalFunction

    one = RationalFunction.const(GaussianRational.of(1))
    z2 = one + RationalFunction.const(GaussianRational.of(1, 1)) * unit_circle()
    motion = ParametrizedMotion(
        Graph.of(3, [(0, 1), (1, 2)]), (0, 1), (RationalFunction.const(GaussianRational.of(0)), one, z2)
    )
    path = tmp_path / "motion.json"
    path.write_text(motion_to_json(motion))
    code, _, err = run(["motion", "refix", str(path), "--edge", "1,2"], capsys)
    assert code == 2
    assert "irrational length sqrt(2)" in err


def test_motion_valuations_table_layout(tmp_path, capsys):
    outdir = tmp_path / "q1"
    run(["classify", Q1, "--out", str(outdir)], capsys)
    code, out, _ = run(["motion", "valuations", str(outdir / "motion.json")], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[0] == "edge"
    assert len(lines) == 1 + 11  # header plus one row per edge


def test_motion_active_nac_and_refix(tmp_path, capsys):
    outdir = tmp_path / "q1"
    run(["classify", Q1, "--out", str(outdir)], capsys)
    code, out, _ = run(
        ["motion", "active-nac", str(outdir / "motion.json"), "--format", "json"],
        capsys,
    )
    assert code == 0
    assert len(json.loads(out)) == 4
    refixed = tmp_path / "refixed.json"
    # pick an edge of the catalog Q1
    u, v = sorted(catalog_graph("Q1").edges)[1]
    code, out, _ = run(
        [
            "motion",
            "refix",
            str(outdir / "motion.json"),
            "--edge",
            f"{u},{v}",
            "--out",
            str(refixed),
        ],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["motion", "verify", str(refixed)], capsys)
    assert code == 0
    assert json.loads(out)["compatible"]


def test_active_nac_on_unsplit_places(tmp_path, capsys):
    # the places of unresolved_motion are the roots of p and of conj(p),
    # neither split over Q(i); each activates one coloring, with no warning
    from movability.motion import motion_to_json

    path = tmp_path / "motion.json"
    path.write_text(motion_to_json(unresolved_motion()))
    code, out, err = run(["motion", "active-nac", str(path), "--format", "json"], capsys)
    assert code == 0
    assert [c["colors"] for c in json.loads(out)] == [["red", "blue"], ["blue", "red"]]
    assert err == ""


def test_active_nac_of_s5_at_large_a(tmp_path):
    # at a = 10^40 the cubic W polynomials of S5 carry a^2 - 1 in their end
    # coefficients; their places need no factorization, so the query ends
    # well inside the timeout
    cli = [sys.executable, "-m", "movability.cli"]
    outdir = tmp_path / "s5"
    subprocess.run([*cli, "construct", "s5", "--a", "1e40", "--out", str(outdir)],
                   check=True, capture_output=True, timeout=60)
    result = subprocess.run([*cli, "motion", "active-nac", str(outdir / "motion.json"), "--format", "json"],
                            capture_output=True, text=True, timeout=20)
    assert result.returncode == 0, result.stderr
    assert len(json.loads(result.stdout)) == 6


def test_track_cli(tmp_path, capsys):
    from movability.constructions import deltoid_motion
    from movability.motion import labeling_to_json

    quad = deltoid_motion()
    lab_file = tmp_path / "lab.json"
    lab_file.write_text(labeling_to_json(quad.motion.induced_labeling()))
    start_file = tmp_path / "start.json"
    start_file.write_text(json.dumps(quad.motion.realize_float(1.0)))
    out_file = tmp_path / "path.csv"
    code, out, _ = run(
        [
            "motion",
            "track",
            "--labeling",
            str(lab_file),
            "--start",
            str(start_file),
            "--fixed",
            "0,1",
            "--steps",
            "20",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 22
    assert lines[0].startswith("step,")


def test_gen_stream(tmp_path, capsys):
    out_file = tmp_path / "graphs.g6"
    code, _, _ = run(["gen", "--max-n", "5", "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 1 + 2 + 6 + 21


def test_census_cli_small(tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    run(["gen", "--max-n", "6", "--out", str(stream)], capsys)
    code, out, err = run(
        ["census", "--graphs", str(stream), "--max-n", "6"], capsys
    )
    # bundled catalog includes 7- and 8-vertex entries the 6-census cannot
    # reach, so the match fails with exit 4
    assert code == 4
    report = json.loads(out)
    assert report["matches_catalog"] is False


def test_census_cli_with_catalog_dir(tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    run(["gen", "--max-n", "6", "--out", str(stream)], capsys)
    catdir = tmp_path / "cat"
    catdir.mkdir()
    for name in ("K33", "L1"):
        (catdir / f"{name}.g6").write_text(encode_graph6(catalog_graph(name)) + "\n")
    report_file = tmp_path / "report.json"
    code, out, err = run(
        [
            "census",
            "--graphs",
            str(stream),
            "--max-n",
            "6",
            "--catalog",
            str(catdir),
            "--out",
            str(report_file),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["matches_catalog"] is True


def test_output_is_deterministic(capsys):
    first = run(["classify", Q1], capsys)
    second = run(["classify", Q1], capsys)
    assert first == second
    third = run(["nac", "enum", C4], capsys)
    fourth = run(["nac", "enum", C4], capsys)
    assert third == fourth


def test_census_progress_goes_to_stderr_only(tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    run(["gen", "--max-n", "7", "--out", str(stream)], capsys)
    argv = ["census", "--graphs", str(stream), "--max-n", "7"]
    code, out, err = run(argv, capsys)
    assert run([*argv, "--progress"], capsys) == (
        code, out, "census: 0/995\ncensus: 500/995\n" + err
    )


def test_census_jobs_agree(tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    run(["gen", "--max-n", "6", "--out", str(stream)], capsys)
    from movability.decide import census

    lines = stream.read_text().splitlines()
    serial = census(lines, max_n=6, catalog=None, jobs=1).to_json()
    parallel = census(lines, max_n=6, catalog=None, jobs=2).to_json()
    assert serial == parallel


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_census_jobs_below_one_exits_2(jobs, tmp_path, capsys):
    stream = tmp_path / "graphs.g6"
    stream.write_text("Bw\n")
    code, out, err = run(["census", "--graphs", str(stream), "--jobs", jobs], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --jobs must be at least 1")


def test_census_pool_is_clamped_to_the_cpu_count(monkeypatch):
    # the fake pool maps in this process, so no worker is started
    import multiprocessing
    import os

    from movability.decide import census
    from movability.smallgraphs import connected_graphs_up_to

    sizes = []

    class SerialPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize=1):
            return list(map(func, items))

    lines = [encode_graph6(g) for g in connected_graphs_up_to(5)]
    serial = census(lines, max_n=5, catalog=None).to_json()
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    # one worker runs in this process: no pool is opened
    for cpus, jobs, size in ((2, 4000, 2), (8, 3, 3), (None, 4, None), (1, 4, None)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert census(lines, max_n=5, catalog=None, jobs=jobs).to_json() == serial
        assert (sizes.pop() if sizes else None) == size
    with pytest.raises(ValueError):
        census(lines, max_n=5, catalog=None, jobs=0)


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run(["census", "--graphs", "/nonexistent/file.g6"], capsys)
    assert code == 2


def test_construct_two_nac_writes_embedding(tmp_path, capsys):
    outdir = tmp_path / "two"
    code, out, _ = run(
        ["construct", "two-nac", Q1, "--out", str(outdir)], capsys
    )
    assert code == 0
    emb = json.loads((outdir / "embedding.json").read_text())
    assert len(emb) == 7
    assert all(len(p) == 3 for p in emb.values())


def test_construct_two_nac_explicit_pair(tmp_path, capsys):
    # an explicit pair is checked, then embedded and driven as classify's
    # search does; its driven motion is proper because the embedding is
    # injective
    from itertools import combinations

    from movability.constructions import two_nac_search
    from movability.graphs import parse_graph6
    from movability.nac import enumerate_nac

    g = parse_graph6(Q1)
    pairs = combinations(enumerate_nac(g, non_conjugated=True), 2)
    first, second, _, _ = two_nac_search(g, pairs)
    (tmp_path / "first.json").write_text(first.to_json())
    (tmp_path / "second.json").write_text(second.to_json())
    argv = ["construct", "two-nac", Q1, "--first", str(tmp_path / "first.json"),
            "--second", str(tmp_path / "second.json"), "--out", str(tmp_path / "out")]
    assert run(argv, capsys)[0] == 0


def test_construct_two_nac_checks_the_colorings_of_files(tmp_path, capsys):
    # a recoloring of an enumerated coloring that is no NAC-coloring, paired
    # so that every direction class is filled: the NAC check rejects it
    from movability.graphs import parse_graph6
    from movability.nac import NacColoring, enumerate_nac, is_nac

    g = parse_graph6(Q1)
    first, second = enumerate_nac(g, non_conjugated=True)[:2]
    bad = next(
        c for c in (NacColoring(g, first.red ^ {e}) for e in sorted(g.edges))
        if not is_nac(g, c) and len({(color(c, *f), color(second, *f)) for f in g.edges}) == 4
    )
    (tmp_path / "first.json").write_text(bad.to_json())
    (tmp_path / "second.json").write_text(second.to_json())
    argv = ["construct", "two-nac", Q1, "--first", str(tmp_path / "first.json"),
            "--second", str(tmp_path / "second.json"), "--out", str(tmp_path / "out")]
    code, _, err = run(argv, capsys)
    assert code == 5
    assert err == "construction inapplicable: a supplied coloring is not a NAC-coloring\n"


def test_nac_enum_table_format(capsys):
    code, out, _ = run(["nac", "enum", C4, "--format", "table"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("edge")
    assert len(lines) == 5  # header + one row per edge


def test_adjacency_json_input(capsys):
    spec = '{"n": 4, "edges": [[0,1],[1,2],[2,3],[0,3]]}'
    code, out, _ = run(["nac", "enum", spec], capsys)
    assert code == 0
    assert len(json.loads(out)) == 6


@pytest.mark.parametrize(
    "method, graph, construction",
    [("dixon1", "EFz_", "dixon_one"), ("grid", "ElNG", "grid"), ("two-nac", "FLr@w", "two_nac")],
)
def test_construct_matches_classify(method, graph, construction, tmp_path, capsys):
    # construct and classify share one construction search, so they settle
    # on the same labeling
    code, out, _ = run(["classify", graph, "--out", str(tmp_path / "cls")], capsys)
    assert code == 0
    assert json.loads(out)["certificate"]["construction"] == construction
    code, _, _ = run(["construct", method, graph, "--out", str(tmp_path / "con")], capsys)
    assert code == 0
    assert (tmp_path / "con" / "labeling.json").read_text() == (
        tmp_path / "cls" / "labeling.json"
    ).read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["motion", "track", "--labeling", "negative.json", "--start", "start.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "short.json", "--start", "start.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "twice.json", "--start", "start.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "lab.json", "--start", "start.json", "--fixed", "zero"],
        ["motion", "track", "--labeling", "lab.json", "--start", "start.json", "--fixed", "0,9"],
        ["motion", "track", "--labeling", "lab.json", "--start", "words.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "lab.json", "--start", "far.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "lab.json", "--start", "nan.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "lab.json", "--start", "inf.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "lab.json", "--start", "columns.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "lab.json", "--start", "rows.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "lab.json", "--start", "flat.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "zero-den.json", "--start", "start.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "negative-vertex.json", "--start", "start.json", "--fixed", "0,1"],
        ["motion", "verify", "coeff-zero-den.json"],
        ["motion", "refix", "poly-zero-den.json", "--edge", "1,2"],
        ["motion", "refix", "motion.json", "--edge", "0"],
        ["motion", "refix", "motion.json", "--edge", "0,2"],
        ["construct", "s5", "--a", "x", "--out", "out"],
        ["construct", "dixon1", "EFz_", "--x", "a,b,c", "--out", "out"],
        ["nac", "enum", "CB"],
        ["cdc", "C?"],
        ["classify", "C?"],
        ["classify", '{"n": 1, "edges": []}'],
        ["construct", "grid", "CB", "--out", "out"],
        ["construct", "two-nac", "CB", "--out", "out"],
        ["census", "--graphs", "k38.g6", "--max-n", "11"],
        ["census", "--graphs", "k38.g6", "--max-n", "5", "--catalog", "missing"],
        ["census", "--graphs", "k38.g6", "--max-n", "5", "--catalog", "empty"],
        ["nac", "enum", json.dumps({"n": 63, "edges": [[v, v + 1] for v in range(62)]})],
        ["gen", "--max-n", "11"],
        ["gen", "--max-n", "-3"],
        ["gen", "--max-n", "0"],
        ["census", "--graphs", "k38.g6", "--max-n", "-1"],
        ["nac", "enum", '{"n": 3, "edges": [[0, 1.5], [1, 2]]}'],
        ["nac", "enum", '{"n": 3, "edges": [[0, "1"], [1, 2]]}'],
        ["nac", "enum", '{"n": 2.5, "edges": [[0, 1]]}'],
        ["motion", "verify", "float-n.json"],
        ["motion", "verify", "complex-x.json"],
        ["nac", "enum", '{"n": 3, "edges": 5}'],
        ["nac", "enum", '{"n": 3, "edges": null}'],
        ["nac", "check", "Cl", "--coloring", "coloring-float.json"],
        ["nac", "check", "Cl", "--coloring", "coloring-bool.json"],
        ["nac", "check", "Cl", "--coloring", "coloring-twice.json"],
        *(["nac", "check", "Cl", "--coloring", f"coloring-{name}.json"]
          for name in ("no-edges", "list", "colors-int")),
        ["construct", "grid", "ElNG", "--coloring", "grid-coloring-float.json", "--out", "out"],
        ["motion", "track", "--labeling", "triangle.json", "--start", "triangle-start.json",
         "--fixed", "0,1"],
        ["construct", "two-nac", "FLr@w", "--first", "q1-coloring.json", "--out", "out"],
        ["construct", "two-nac", "FLr@w", "--second", "/nonexistent.json", "--out", "out"],
        ["motion", "track", "--labeling", "lambda-bool.json", "--start", "square.json", "--fixed", "0,1"],
        ["motion", "track", "--labeling", "lambda-float.json", "--start", "diamond.json", "--fixed", "0,1"],
        ["motion", "verify", "coeff-overflow.json"],
        ["motion", "verify", "coeff-bool.json"],
        ["motion", "verify", "coeff-float.json"],
        ["motion", "verify", "coeff-short.json"],
        ["motion", "verify", "fixed-bool-first.json"],
        ["motion", "refix", "fixed-bool-first.json", "--edge", "1,2"],
        ["motion", "verify", "fixed-bool-second.json"],
        ["motion", "verify", "fixed-float.json"],
        ["motion", "verify", "n-huge.json"],
        ["motion", "verify", "n-63.json"],
        ["motion", "verify", "n-10.json"],
        ["motion", "verify", "no-y.json"],
        ["motion", "verify", "vertices-list.json"],
        *(["motion", "track", "--labeling", "lab.json", "--start", "start.json", "--fixed", "0,1",
           "--step-size", size] for size in ("inf", "1e300", "0", "-0.1", "nan")),
        *(["motion", "track", "--labeling", "lab.json", "--start", "start.json", "--fixed", "0,1",
           "--steps", steps] for steps in ("-5", "0")),
        *(["motion", "track", "--labeling", "lab.json", "--start", "start.json", "--fixed", "0,1",
           "--tol", tol] for tol in ("inf", "nan", "0", "-0.5")),
        ["nac", "enum", "Bw", "--cap", "-1"],
        ["cdc", "Bw", "--cap", "-1"],
        ["classify", "Bw", "--cap", "-1"],
        ["construct", "grid", "ElNG", "--cap", "-1", "--out", "out"],
        ["construct", "two-nac", "FLr@w", "--cap", "-1", "--out", "out"],
    ],
    ids=["lambda-negative", "lambda-short", "edge-twice", "fixed-zero", "fixed-non-edge",
         "start-words", "start-off-labeling", "start-nan", "start-infinity", "start-three-columns",
         "start-two-rows", "start-flat", "lambda-zero-denominator", "lambda-negative-vertex",
         "motion-zero-denominator", "motion-zero-polynomial", "refix-0", "refix-non-edge", "s5-a-x",
         "dixon-x-abc", "nac-enum-disconnected", "cdc-disconnected", "classify-disconnected",
         "classify-one-vertex", "grid-disconnected", "two-nac-disconnected", "census-max-n-11",
         "census-catalog-missing", "census-catalog-empty", "json-graph-63-vertices",
         "gen-max-n-11", "gen-max-n-negative", "gen-max-n-0", "census-max-n-negative",
         "json-graph-float-vertex", "json-graph-string-vertex",
         "json-graph-float-n", "motion-float-n", "motion-complex-x", "json-graph-edges-int",
         "json-graph-edges-null",
         "coloring-float-vertex", "coloring-bool-vertex", "coloring-edge-twice",
         "coloring-no-edges", "coloring-list", "coloring-colors-int",
         "grid-coloring-float-vertex",
         "track-rigid-triangle", "two-nac-lone-first", "two-nac-lone-second", "lambda-bool",
         "lambda-float", "motion-coefficient-1e999", "motion-coefficient-bool",
         "motion-coefficient-float", "motion-coefficient-one-element",
         "motion-fixed-edge-bool-first", "refix-fixed-edge-bool-first",
         "motion-fixed-edge-bool-second", "motion-fixed-edge-float", "motion-n-huge",
         "motion-n-63", "motion-missing-vertex", "motion-missing-y", "motion-vertices-list",
         "step-size-inf",
         "step-size-1e300", "step-size-0", "step-size-negative", "step-size-nan", "steps-negative",
         "steps-0", "tol-inf", "tol-nan", "tol-0", "tol-negative", "nac-enum-cap-negative",
         "cdc-cap-negative", "classify-cap-negative", "grid-cap-negative",
         "two-nac-cap-negative"],
)
def test_malformed_input_exits_2(argv, tmp_path, monkeypatch, capsys):
    from movability.constructions import deltoid_motion
    from movability.motion import labeling_to_json, motion_to_json

    motion = deltoid_motion().motion
    lab = json.loads(labeling_to_json(motion.induced_labeling()))
    start = motion.realize_float(1.0)
    coeff_zero_den, poly_zero_den, float_n = (json.loads(motion_to_json(motion)) for _ in range(3))
    coeff_zero_den["vertices"]["2"]["x"]["num"][0][0] = "1/0"
    poly_zero_den["vertices"]["2"]["x"]["den"] = [["0/1", "0/1"]]
    float_n["n"] = 4.7
    # x_1 = 1 + i and y_1 = -1 give the deltoid's z_1 = x_1 + i y_1 = 1, so
    # only the realness check on the file's x and y rejects it
    complex_x = json.loads(motion_to_json(motion))
    complex_x["vertices"]["1"]["x"]["num"] = [["1/1", "1/1"]]
    complex_x["vertices"]["1"]["y"]["num"] = [["-1/1", "0/1"]]
    # in the deltoid with a = 3/2, x_1 = 3/2 and x_2 has the denominator
    # 4 + t^2: JSON's 1e999 reads as a float infinity, which Fraction cannot
    # hold, and Fraction(1.5) == 3/2 and Fraction(True) == 1 give the same
    # motion back, so only a type check on each coefficient part keeps these
    # out; a value is spliced in as text over the "@" it replaces
    coefficient_texts = {}
    for name, (path, value) in {
        "overflow": ((1, "num", 0, 0), "1e999"),
        "float": ((1, "num", 0, 0), "1.5"),
        "bool": ((2, "den", 2, 0), "true"),
        "short": ((1, "num", 0), '["3/2"]'),
    }.items():
        bad = json.loads(motion_to_json(deltoid_motion(Fraction(3, 2)).motion))
        v, part, *index = path
        slot = bad["vertices"][str(v)]["x"][part]
        for i in index[:-1]:
            slot = slot[i]
        slot[index[-1]] = "@"
        coefficient_texts[f"coeff-{name}.json"] = json.dumps(bad).replace('"@"', value)
    # the deltoid's fixed edge is (0, 1), and False == 0, True == 1 and 0.0 == 0
    fixed_edges = {}
    for name, fixed in (("bool-first", [False, 1]), ("bool-second", [0, True]),
                        ("float", [0.0, 1])):
        fixed_edges[f"fixed-{name}.json"] = {**json.loads(motion_to_json(motion)), "fixed_edge": fixed}
    # without the vertex cap, 10**20 ends in an OverflowError in the graph
    # constructor before anything is allocated; a count that fits an index
    # would allocate for real, so none is used here
    vertex_counts = {f"n-{name}.json": {**json.loads(motion_to_json(motion)), "n": n}
                     for name, n in (("huge", 10**20), ("63", 63), ("10", 10))}
    no_y = json.loads(motion_to_json(motion))
    del no_y["vertices"]["2"]["y"]
    files = {
        "lab.json": lab,
        "negative.json": {"edges": lab["edges"], "lambda_sq": ["-1"] + lab["lambda_sq"][1:]},
        "short.json": {"edges": lab["edges"], "lambda_sq": lab["lambda_sq"][:-1]},
        "twice.json": {
            "edges": lab["edges"] + lab["edges"][:1],
            "lambda_sq": lab["lambda_sq"] + lab["lambda_sq"][:1],
        },
        "start.json": motion.realize_float(1.0),
        "words.json": [["a", "b"]] * len(motion.realize_float(1.0)),
        "far.json": [[3 * x, 3 * y] for x, y in motion.realize_float(1.0)],
        "nan.json": [[float("nan"), 0.0]] + start[1:],
        "inf.json": [[float("inf"), 0.0]] + start[1:],
        "columns.json": [[x, y, 0.0] for x, y in start],
        "rows.json": start[:2],
        "flat.json": [0, 1, 2],
        "zero-den.json": {"edges": lab["edges"], "lambda_sq": ["1", "1/0"] + lab["lambda_sq"][2:]},
        "negative-vertex.json": {
            "edges": [[-1, 0] if e == [0, 3] else e for e in lab["edges"]],
            "lambda_sq": lab["lambda_sq"],
        },
        "coeff-zero-den.json": coeff_zero_den,
        "poly-zero-den.json": poly_zero_den,
        "float-n.json": float_n,
        "complex-x.json": complex_x,
        "no-y.json": no_y,
        "vertices-list.json": {**json.loads(motion_to_json(motion)), "vertices": []},
        # 0.0 == 0 and True == 1, so only a type check keeps these out
        "coloring-float.json": {"edges": [[0.0, 1], [0, 3], [1, 2], [2, 3]],
                                "colors": ["blue", "red", "red", "blue"]},
        "coloring-bool.json": {"edges": [[0, 1], [0, 3], [True, 2], [2, 3]],
                               "colors": ["blue", "red", "red", "blue"]},
        # edge [0, 1] once red and once blue; its red entry made a NAC-coloring
        "coloring-twice.json": {"edges": [[0, 1], [0, 1], [0, 3], [1, 2], [2, 3]],
                                "colors": ["red", "blue", "blue", "red", "blue"]},
        "coloring-no-edges.json": {"colors": ["blue", "red", "red", "blue"]},
        "coloring-list.json": [],
        "coloring-colors-int.json": {"edges": [[0, 1], [0, 3], [1, 2], [2, 3]], "colors": 5},
        "grid-coloring-float.json": {
            "edges": [[0.0, 1], [0, 3], [0, 5], [1, 2], [1, 5], [2, 3], [2, 4], [3, 4], [4, 5]],
            "colors": ["blue", "red", "blue", "red", "blue", "blue", "blue", "blue", "red"],
        },
        "triangle.json": {"edges": [[0, 1], [0, 2], [1, 2]], "lambda_sq": ["1", "1", "1"]},
        "triangle-start.json": [[0.0, 0.0], [1.0, 0.0], [0.5, 3**0.5 / 2]],
        # Fraction(True) == 1 and Fraction(0.5) == 1/2, and both rhombi track,
        # so only a type check keeps these out
        "lambda-bool.json": {"edges": lab["edges"], "lambda_sq": [True, "1", "1", "1"]},
        "square.json": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        "lambda-float.json": {"edges": lab["edges"], "lambda_sq": [0.5, "1/2", "1/2", "1/2"]},
        "diamond.json": [[0.0, 0.0], [0.5, 0.5], [0.0, 1.0], [-0.5, 0.5]],
        # a NAC-coloring of Q1 (FLr@w), given without its partner
        **fixed_edges,
        **vertex_counts,
        "q1-coloring.json": {
            "edges": [[0, 3], [0, 4], [0, 5], [1, 2], [1, 4], [1, 5], [2, 3], [2, 6], [3, 6],
                      [4, 6], [5, 6]],
            "colors": ["blue", "red", "red", "red", "blue", "blue", "red", "red", "red", "blue",
                       "blue"],
        },
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    for name, text in coefficient_texts.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "motion.json").write_text(motion_to_json(motion))
    (tmp_path / "k38.g6").write_text("JFzfFB_wF??\n")  # K_{3,8}: its closure is kept
    (tmp_path / "empty").mkdir()
    monkeypatch.chdir(tmp_path)
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:")
    if "triangle.json" in argv:
        assert "no flex" in err
    if "--step-size" in argv:
        assert err.startswith("error: cannot track")
        if argv[-1] != "1e300":
            assert "step size must be finite and positive" in err
    if "--steps" in argv:
        assert err.startswith("error: cannot track")
        assert "steps must be a positive integer" in err
    if "--tol" in argv:
        assert err.startswith("error: cannot track")
        assert "tol must be finite and positive" in err
    if "coloring-twice.json" in argv:
        assert "every edge exactly once" in err
    if any(f"coloring-{name}.json" in argv for name in ("no-edges", "list", "colors-int")):
        assert "a coloring must be an object with edges and colors lists" in err
    if any(arg.startswith("fixed-") for arg in argv):
        assert "needs two integer vertices" in err
    if "n-huge.json" in argv or "n-63.json" in argv:
        assert "at most 62 vertices" in err
    if "n-10.json" in argv:
        assert "vertex 4 needs an entry with x and y" in err
    if "no-y.json" in argv:
        assert "vertex 2 needs an entry with x and y" in err
    if "vertices-list.json" in argv:
        assert "vertices must be an object" in err
    if "--cap" in argv:
        assert err == "error: --cap must be at least 0, got -1\n"
    if argv[-2] == "--max-n" and int(argv[-1]) < 1:
        assert f"--max-n must be at least 1, got {argv[-1]}" in err
