"""`tools/bench_pairs.py` reading a perfbench run's stdout.

perfbench/run.py prints a record line with every pass, then summary lines,
then the result line.  The paired-run tool keeps the result and, from the
record line, the least `raw_pass_s` and least `speed_samples`.
"""

import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RESULT = {"correct": True, "attempted": 52, "failed": 0,
          "metrics": {"pass_s": {"value": 0.15, "unit": "s"}}}


def _stdout(passes) -> str:
    record = {"workload": "exact-motion", "seed": 0, "setups_s": [0.1], "passes": passes}
    return "\n".join([
        json.dumps(record),
        "fail_frac 0/52 = 0.0000",
        "pass_s 0.15 s",
        json.dumps(RESULT),
    ]) + "\n"


def test_least_pass_margins_come_from_the_record_line():
    passes = [
        {"pass_s": 0.15, "raw_pass_s": 0.071234, "speed_samples": 2},
        {"pass_s": 0.14, "raw_pass_s": 0.064567, "speed_samples": 3},
        {"pass_s": 0.16, "raw_pass_s": 0.069, "speed_samples": 1},
    ]
    assert bench_pairs.parse_stdout(_stdout(passes), 0) == {
        "result": RESULT, "least_raw_pass_s": 0.0646, "least_speed_samples": 1,
    }


def test_failed_or_partial_runs_give_none():
    empty = {"result": None, "least_raw_pass_s": None, "least_speed_samples": None}
    passes = [{"raw_pass_s": 0.07, "speed_samples": 2}]
    assert bench_pairs.parse_stdout(_stdout(passes), 2) == empty
    assert bench_pairs.parse_stdout("", 0) == empty
    # no record line, or one without pass times: the result alone
    assert bench_pairs.parse_stdout(json.dumps(RESULT), 0) == {**empty, "result": RESULT}
    assert bench_pairs.parse_stdout(_stdout([]), 0) == {**empty, "result": RESULT}
    assert bench_pairs.parse_stdout(_stdout([{"pass_s": 0.1}]), 0) == {**empty, "result": RESULT}
