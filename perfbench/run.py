"""Movability benchmark: seeded workloads timed through the public API.

    python3 perfbench/run.py --workload census-n8 --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout, the directory that holds src/movability;
there is nothing to build.  Every pass runs in a fresh interpreter
(perfbench/workload.py), because a command-line user pays every cold cost
on every call and the package's process-wide caches must start empty.

--trace 0 prints the end-to-end metrics: set-up time as the median of
several fresh interpreters, and each workload's two stage times and pass
time as medians over the passes that fit in --seconds (at least one).
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics of the traced pass, plus the tracing overhead of each end-to-end
metric (traced minus untraced).  The spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable summary
and a JSON record of the machine, versions, date and every pass.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("census-n8", "classify-mix", "exact-motion")
END_TO_END = {"setup_s": "s", "stage1_s": "s", "stage2_s": "s", "pass_s": "s"}
SETUP_PROBES = 7
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run (not a defect of the program under test)."""


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Start workload.py in a fresh interpreter and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    cmd = [sys.executable, str(HERE / "workload.py"), "--t0", repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"pass did not finish within {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool, size: str) -> dict:
    root = Path.cwd()
    if not (root / "src" / "movability" / "__init__.py").is_file():
        raise BenchError(f"no src/movability under {root}; run from the root of a checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size]

    # the first interpreter compiles the sources to bytecode, a one-off cost
    env_info = child(base + ["--setup-only"], env, deadline)
    started = time.monotonic()
    setups: list[float] = []
    passes: list[dict] = []
    if trace:
        passes.append(child(base + ["--pass-id", "0"], env, deadline))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{workload}.jsonl"
        passes.append(child(base + ["--pass-id", "1", "--spans", str(span_file)], env, deadline))
    else:
        setups = [child(base + ["--setup-only"], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        durations: list[float] = []
        while not passes or time.monotonic() - started + statistics.median(durations) <= seconds:
            t = time.monotonic()
            passes.append(child(base + ["--pass-id", str(len(passes))], env, deadline))
            durations.append(time.monotonic() - t)
    return {"env": env_info, "setups": setups, "passes": passes}


def result_line(run: dict, trace: bool) -> dict:
    passes = run["passes"]
    problems = [p for one in passes for p in one["problems"]]
    if any(one["signature"] != passes[0]["signature"] for one in passes[1:]):
        problems.append("outputs differ between passes on the same inputs")
    if trace:
        untraced, traced = passes
        metrics = {
            name: {"value": traced["layers"][name], "unit": unit}
            for name, unit in spans.layer_metric_units().items()
        }
        for name, unit in END_TO_END.items():
            metrics[f"trace_overhead.{name}"] = {"value": traced[name] - untraced[name], "unit": unit}
    else:
        metrics = {"setup_s": {"value": statistics.median(run["setups"]), "unit": "s"}}
        for name in ("stage1_s", "stage2_s", "pass_s"):
            metrics[name] = {"value": statistics.median(p[name] for p in passes), "unit": "s"}
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    line = result_line(run, bool(args.trace))
    problems = line.pop("problems")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **run["env"],
        "setups_s": run["setups"],
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in run["passes"]],
    }
    print(json.dumps(record, default=str))
    for p in problems:
        print(f"INCORRECT: {p}")
    print(f"fail_frac {line['failed']}/{line['attempted']} = {line['failed'] / line['attempted']:.4f}")
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
