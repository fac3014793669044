"""Paired benchmark runs of two source trees, written as a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent OLD_TREE --change NEW_TREE \\
        --run census-n8:0 --run classify-mix:0 --pairs 10 \\
        --claim census-n8:pass_s --label NAME --what "..." --out BENCH_NAME.json

Each tree is a checkout root (the directory holding `perfbench/` and
`src/movability`).  For every `--run WORKLOAD:SEED` it makes `--pairs`
pairs of runs of `python3 perfbench/run.py --workload WORKLOAD --seed SEED
--seconds S --trace 0`, one run at a time, each from its own tree.  The
parent goes first in even pairs and the change in odd ones, so a drift in
the host's speed falls on both sides alike.  The end-to-end metrics, their
`better` direction and their bounds are read from the parent's
BENCHMARK.json; perfbench itself is only run, never changed.

The output holds `machine` (with whether PYTHONDONTWRITEBYTECODE is set,
which the runs inherit), `command`, `claim` and, per workload and seed,
the exit code, `attempted`, `failed` and `correct` of every run, every
run's metric values, every run's least `raw_pass_s` (a pass's unnormalized
time) and least `speed_samples` (read from the record line run.py prints
before its result line, so the margin above the speed probe's 50 ms tick
shows), and per metric the medians, the inclusive quartiles,
the parent's interquartile range, the ratio of the medians and the number
of pairs in which the change is better (lower, for a lower-is-better
metric).  A run that exits nonzero or prints no result line counts as
failed, and its values are null.  The file is rewritten after every pair,
so an interrupted run keeps the pairs it measured.  Standard library only.
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
from pathlib import Path

SIDES = ("parent", "change")


def one_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """Exit code, result line and pass margins of one perfbench run from `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return {"exit_code": proc.returncode, **parse_stdout(proc.stdout, proc.returncode)}


def parse_stdout(stdout: str, exit_code: int) -> dict:
    """The result line (the last line) of a run's stdout, and the least
    `raw_pass_s` and least `speed_samples` over the passes its record line
    (the JSON line with a `passes` list, printed before the result) holds;
    each None when the run failed or the line is missing or malformed."""
    out = {"result": None, "least_raw_pass_s": None, "least_speed_samples": None}
    lines = stdout.strip().splitlines()
    if exit_code != 0 or not lines:
        return out
    try:
        out["result"] = json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    for line in lines[:-1]:
        try:
            passes = json.loads(line)["passes"]
            raw = min(p["raw_pass_s"] for p in passes)
            samples = min(p["speed_samples"] for p in passes)
        except (json.JSONDecodeError, TypeError, KeyError, ValueError):
            continue
        out["least_raw_pass_s"], out["least_speed_samples"] = round(raw, 4), samples
        break
    return out


def summary(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, quartiles and the pairs the change wins, over the pairs in
    which both sides produced a value."""
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    out = {"parent": parent, "change": change}
    if len(pairs) < 2:
        return out
    ps = [p for p, _ in pairs]
    cs = [c for _, c in pairs]
    pq = statistics.quantiles(ps, n=4, method="inclusive")
    cq = statistics.quantiles(cs, n=4, method="inclusive")
    pm, cm = statistics.median(ps), statistics.median(cs)
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
    out.update({
        "parent_median": round(pm, 4),
        "change_median": round(cm, 4),
        "parent_quartiles": [round(pq[0], 4), round(pq[2], 4)],
        "change_quartiles": [round(cq[0], 4), round(cq[2], 4)],
        "parent_iqr": round(pq[2] - pq[0], 4),
        "change_over_parent": round(cm / pm, 4) if pm else None,
        "bound": bound,
        "change_better_pairs": wins,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric the change claims to improve")
    parser.add_argument("--label", default="")
    parser.add_argument("--what", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = []
    for item in args.run:
        workload, _, seed = item.partition(":")
        runs.append((workload, int(seed or 0)))
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if metric not in metrics:
            parser.error(f"--claim names {metric!r}, not an end-to-end metric of BENCHMARK.json")
        claim = {"workload": workload, "metric": metric, "better": metrics[metric]["better"]}
    doc = {
        "label": args.label,
        "what": args.what,
        "date": datetime.date.today().isoformat(),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            # set, no bytecode is cached, and every run compiles the package
            # afresh inside its setup_s
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        },
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} "
                    f"--trace 0; {args.pairs} pairs per workload and seed, parent and change "
                    "alternating which runs first (parent first in even pairs), one run at a "
                    "time, each side from its own copy of the tree (tools/bench_pairs.py)"),
        "units": ("stage and pass values in seconds at the benchmark's reference speed; "
                  "setup_s raw seconds; bound is the relative worsening BENCHMARK.json allows"),
        "claim": claim,
        "workloads": {},
    }
    for workload, seed in runs:
        record = {"pairs": 0, "seed": seed, "first": []}
        raw = {side: [] for side in SIDES}
        doc["workloads"][f"{workload}@seed{seed}"] = record
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                raw[side].append(one_run(trees[side], workload, seed, args.seconds))
                print(f"{workload}@seed{seed} pair {k} {side}: exit {raw[side][-1]['exit_code']}",
                      file=sys.stderr, flush=True)
            record["pairs"] = k + 1
            record["first"].append(order[0])
            record["exit_code"] = {side: [r["exit_code"] for r in raw[side]] for side in SIDES}
            for key in ("failed", "attempted", "correct"):
                record[key] = {side: [r["result"][key] if r["result"] else None for r in raw[side]]
                               for side in SIDES}
            for key in ("least_raw_pass_s", "least_speed_samples"):
                record[key] = {side: [r[key] for r in raw[side]] for side in SIDES}
            for name, m in metrics.items():
                values = {side: [round(r["result"]["metrics"][name]["value"], 4) if r["result"] else None
                                 for r in raw[side]] for side in SIDES}
                record[name] = summary(values["parent"], values["change"], m["better"], m["bound"])
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
