#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 bench/spread.py --workload maximize-3q --seeds 10 --first-seed 101

For every metric it prints the median and the interquartile distance
as a share of the median (statistics.quantiles, n=4), next to the bound
BENCHMARK.json fixes for it.  A benchmark is steady when each spread,
setup_s aside, stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(json.dumps({"seed": seed, "failed": result["failed"],
                          **{k: v["value"] for k, v in result["metrics"].items()}}),
              flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = relative_spread(vals) if med else float("nan")
        print(f"{name:45s} median {med:14.6g} spread {spread:8.4f} bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
