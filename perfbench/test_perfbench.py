"""Tests of the benchmark itself: a smoke run at reduced sizes, the correctness
rules on deliberately wrong outputs, and the span recorder.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_the_runs_emit():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    per_layer = dict(spans.layer_metric_units())
    per_layer.update({f"trace_overhead.{name}": unit for name, unit in run.END_TO_END.items()})
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, proc.stdout
    assert line["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if name == "classify-mix":
        assert line["failed"] >= 1  # the closure-cap witness (known defect)
    if trace:
        assert (HERE / "out" / f"spans-{name}.jsonl").is_file()
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-n8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- correctness rules fire on wrong outputs -------------------------------------


def test_census_rule_fires_on_a_miscount():
    expected = workload.CENSUS_EXPECTED["full"]
    assert workload.check_census(dict(expected), expected) == []
    for key, wrong in (("graphs_seen", 12111), ("survivors", 84), ("maximal", 20),
                       ("matches_catalog", False)):
        problems = workload.check_census({**expected, key: wrong}, expected)
        assert len(problems) == 1 and key in problems[0]
    assert workload.check_census(None, expected)


def classify_results(spec):
    rows = [("catalog", name, "MOVABLE", True) for name in ("K33", "S2")]
    rows += [("triptych", label, kind, True if kind == "MOVABLE" else None)
             for label, kind in workload.TRIPTYCH_EXPECTED.items()]
    for kind, count in spec["deletions"].items():
        rows += [("deletion", "Q1", kind, None)] * count
    rows.append(("cap_witness", "n10", "raised:EnumerationCapExceeded", None))
    rows.append(("random", "n10m19#0", "raised:EnumerationCapExceeded", None))
    rows += [("random", "n6m9#0", "NOT_MOVABLE_NO_NAC", None)] * spec["min_corpus"]
    return rows


def test_classify_rules_fire_on_wrong_verdicts():
    spec = workload.CLASSIFY_SIZES["full"]
    good = classify_results(spec)
    assert workload.check_classify(good, spec) == []
    wrong = {
        "pinned triptych verdict": ("triptych", "closure_k7", "NOT_MOVABLE_NO_NAC", None),
        "catalog entry not movable": ("catalog", "S2", "UNDECIDED", None),
        "certificate fails": ("catalog", "K33", "MOVABLE", False),
        "deletion verdict count": ("deletion", "Q1", "UNDECIDED", None),
        "other exception": ("random", "n6m9#0", "raised:ValueError", None),
    }
    for what, row in wrong.items():
        rows = list(good)
        index = next(i for i, r in enumerate(rows) if r[:2] == row[:2])
        rows[index] = row
        assert workload.check_classify(rows, spec), what
    assert workload.check_classify(good[:150], spec)  # corpus too small for p95


def motion_observed():
    observed = {}
    for name, size in workload.ACTIVE_SIZES.items():
        observed[name] = {
            "edges": 4, "proper": True, "active_size": size, "active": None, "tables": None,
            "refixed": 4, "refix_labelings_kept": True, "refixed_active_kept": True,
            "json_kept": True,
        }
    observed["deltoid"]["active"] = set(workload.DELTOID_ACTIVE)
    observed["deltoid"]["tables"] = {k: dict(v) for k, v in workload.DELTOID_TABLE.items()}
    return observed


def test_motion_rules_fire_on_wrong_outputs():
    names = workload.EXACT_MOTIONS["full"]
    assert workload.check_motions(motion_observed(), names) == []
    for name, key, wrong in (("s5", "active_size", 5), ("q1", "refix_labelings_kept", False),
                             ("deltoid", "refixed_active_kept", False), ("s5", "json_kept", False),
                             ("q1", "refixed", 3), ("q1", "proper", False)):
        observed = motion_observed()
        observed[name][key] = wrong
        assert workload.check_motions(observed, names), (name, key)
    observed = motion_observed()
    observed["deltoid"]["tables"][(0, 2)][(1, 2)] = 0
    assert workload.check_motions(observed, names)
    observed = motion_observed()
    del observed["s5"]
    assert workload.check_motions(observed, names)


def test_passes_on_the_same_inputs_must_agree():
    one = {"problems": [], "signature": {"catalog/MOVABLE": 21}, "attempted": 1, "failed": 0,
           "stage1_s": 1.0, "stage2_s": 1.0, "pass_s": 2.0}
    other = {**one, "signature": {"catalog/MOVABLE": 20}}
    assert run.result_line({"setups": [0.3], "passes": [one, one]}, False)["correct"]
    assert not run.result_line({"setups": [0.3], "passes": [one, other]}, False)["correct"]


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert workload.nearest_rank(values, 0.95) == 190
    assert workload.nearest_rank(values, 0.50) == 100


# -- the recorder ---------------------------------------------------------------------


def test_recorder_rebinds_and_restores_every_import():
    from movability import decide, nac
    from movability.catalog import graph_with_unicolor_path

    original = nac.enumerate_nac
    assert decide.enumerate_nac is original
    recorder = spans.Recorder(0)
    recorder.install()
    try:
        assert nac.enumerate_nac is not original and decide.enumerate_nac is nac.enumerate_nac
        verdict = decide.classify(graph_with_unicolor_path())
    finally:
        recorder.uninstall()
    assert nac.enumerate_nac is original and decide.enumerate_nac is original
    layers = recorder.layer_metrics()
    assert verdict.kind == "NOT_MOVABLE_CDC_COMPLETE"
    assert layers["decide.classify.calls"] == 1
    assert layers["decide.verdict.NOT_MOVABLE_CDC_COMPLETE"] == 1
    assert layers["nac.enumerate_nac.calls"] >= 2 and layers["nac.closure_rounds"] >= 1
    calls, self_s = recorder.self_times()
    (classify_span,) = [s for s in recorder.spans if s[0] == "decide.classify"]
    total = sum(self_s.values())
    assert total == pytest.approx(classify_span[2] - classify_span[1])


def test_self_time_subtracts_direct_children():
    recorder = spans.Recorder(0)
    recorder.spans = [
        ("decide.classify", 0.0, 10.0, -1, 0),
        ("nac.enumerate_nac", 1.0, 4.0, 0, 0),
        ("nac.is_nac", 2.0, 3.0, 1, 0),
        ("nac.enumerate_nac", 5.0, 6.0, 0, 0),
    ]
    calls, self_s = recorder.self_times()
    assert calls["nac.enumerate_nac"] == 2
    assert self_s["decide.classify"] == pytest.approx(6.0)
    assert self_s["nac.enumerate_nac"] == pytest.approx(3.0)
    assert self_s["nac.is_nac"] == pytest.approx(1.0)


def test_speed_probe_scales_by_the_sampled_kernel_time():
    probe = workload.SpeedProbe()
    k = probe.KERNEL_NOMINAL_S
    # a sample every 0.1 s, each taking twice the nominal kernel time
    probe.starts = [0.1 * i for i in range(1, 20)]
    probe.ends = [t + 2 * k for t in probe.starts]
    # 0.45 .. 1.05 s holds the six samples at 0.5 .. 1.0 s
    assert probe.normalize(0.45, 1.05) == pytest.approx((0.6 - 6 * 2 * k) / 2)
    # a short operation between samples uses the samples around it
    assert probe.normalize(0.52, 0.53) == pytest.approx(0.01 / 2)


def test_speed_probe_samples_while_active():
    timer = workload.Timer()
    with timer.probe:
        ok, _ = timer.call("stage", time.sleep, 0.3)
    assert ok and len(timer.probe.starts) >= 3
    (phase, seconds, ok), = timer.latencies
    assert phase == "stage" and seconds > 0
    time.sleep(0.1)  # the timer is off: no more samples
    assert len(timer.probe.starts) == len(timer.probe.ends) <= 7


def test_untraced_timer_installs_nothing():
    from movability import nac

    original = nac.enumerate_nac
    with workload.recording(None):
        assert nac.enumerate_nac is original
    timer = workload.Timer()
    ok, exc = timer.call("stage", int, "not a number")
    assert not ok and isinstance(exc, ValueError)
    assert (timer.attempted, timer.failed) == (1, 1)
