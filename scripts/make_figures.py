#!/usr/bin/env python3
"""Regenerate the four figure CSVs.

FIG1 through FIG3 are closed-form curves and run instantly; FIG4
maximizes four reductions per grid point, each in closed form, so no
restart budget or seed changes its output and the defaults take well
under a second.  Outputs land in --outdir with one file per figure;
rerunning with the same arguments reproduces the files byte for byte.
"""

import argparse
import pathlib
import sys
import time

from svl import VARIANTS
from svl.cli import main as cli_main


def run(outdir: pathlib.Path, points: int, fig4_points: int, variant: str) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = [
        ("FIG1", points, []),
        ("FIG2", points, ["--variant", variant]),
        ("FIG3", points, ["--variant", variant]),
        ("FIG4", fig4_points, []),
    ]
    for fig, npts, extra in jobs:
        target = outdir / f"{fig.lower()}.csv"
        argv = ["figure", fig, "--points", str(npts),
                "--output", str(target)] + extra
        start = time.perf_counter()
        code = cli_main(argv)
        if code != 0:
            print(f"{fig}: FAILED with exit code {code}", file=sys.stderr)
            return code
        print(f"{fig}: wrote {target} ({npts} points, "
              f"{time.perf_counter() - start:.1f}s)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("out"))
    ap.add_argument("--points", type=int, default=181,
                    help="grid points for FIG1-FIG3 (default 181)")
    ap.add_argument("--fig4-points", type=int, default=61,
                    help="grid points for FIG4 (default 61)")
    ap.add_argument("--variant", choices=VARIANTS, default="verbatim")
    args = ap.parse_args()
    return run(args.outdir, args.points, args.fig4_points, args.variant)


if __name__ == "__main__":
    raise SystemExit(main())
