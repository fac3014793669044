"""How far exact-motion passes stay above the benchmark's speed-sample tick.

    python3 tools/tick_margin.py [TREE]

TREE is a checkout root (the directory holding `perfbench/` and
`src/movability`), by default the one this script lives in.  For seeds 0-9
it runs one pass of `perfbench/workload.py --workload exact-motion` from
TREE, in a fresh interpreter with PYTHONPATH=TREE/src, one at a time, and
prints each pass's `raw_pass_s` (its unnormalized time) and
`speed_samples`.

perfbench's speed probe samples every 50 ms, and `Timer.normalize` raises
when no sample falls near an operation, so a pass that finishes in under
50 ms can crash the run.  The script exits 1 when any pass takes under
MARGIN_S (or fails to print a result), and 0 otherwise.  Standard library
only; perfbench is only run, never changed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

SEEDS = range(10)
MARGIN_S = 0.055  # a tenth above the probe's 50 ms interval


def one_pass(tree: Path, seed: int) -> dict | None:
    """The result line of one exact-motion pass from `tree`, or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "perfbench/workload.py", "--workload", "exact-motion",
           "--seed", str(seed), "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit(__doc__)
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    short = []
    print(f"{'seed':>4}  {'raw_pass_s':>10}  speed_samples")
    for seed in SEEDS:
        result = one_pass(tree, seed)
        if result is None:
            print(f"{seed:>4}  {'failed':>10}")
            short.append(seed)
            continue
        raw = result["raw_pass_s"]
        print(f"{seed:>4}  {raw:>10.4f}  {result['speed_samples']}")
        if raw < MARGIN_S:
            short.append(seed)
    if short:
        print(f"under {MARGIN_S} s or failed at seeds {short}")
        return 1
    print(f"every pass took at least {MARGIN_S} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
