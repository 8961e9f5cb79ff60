#!/usr/bin/env python3
"""Regenerate the four figure CSVs.

FIG1 through FIG3 are closed-form curves and run instantly; FIG4
maximizes four reductions per grid point, each in closed form, so no
restart budget or seed changes its output and the default 181 points
take well under a second.  Outputs land in --outdir with one file per
figure; rerunning with the same arguments reproduces the files and the
stdout byte for byte.  Each figure's wall time goes to stderr.
"""

import argparse
import pathlib
import sys
import time

from svl import VARIANTS
from svl.cli import main as cli_main


def run(outdir: pathlib.Path, points: int, variant: str) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = [
        ("FIG1", []),
        ("FIG2", ["--variant", variant]),
        ("FIG3", ["--variant", variant]),
        ("FIG4", []),
    ]
    for fig, extra in jobs:
        target = outdir / f"{fig.lower()}.csv"
        argv = ["figure", fig, "--points", str(points),
                "--output", str(target)] + extra
        start = time.perf_counter()
        code = cli_main(argv)
        if code != 0:
            print(f"{fig}: FAILED with exit code {code}", file=sys.stderr)
            return code
        print(f"{fig}: wrote {target} ({points} points)")
        print(f"{fig}: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("out"))
    ap.add_argument("--points", type=int, default=181,
                    help="grid points per figure (default 181)")
    ap.add_argument("--variant", choices=VARIANTS, default="verbatim")
    args = ap.parse_args()
    return run(args.outdir, args.points, args.variant)


if __name__ == "__main__":
    raise SystemExit(main())
