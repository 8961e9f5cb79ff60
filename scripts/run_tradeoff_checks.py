#!/usr/bin/env python3
"""Run every trade-off bound against numerical maximization and tabulate.

Sweeps a theta grid for the GHZ-type and maximal-slice families and a
coefficient grid for the W-class bounds, printing one line per check
with the maximized left side, the bound, and the verdict.  Unsatisfied
rows are real findings, not failures of the harness: the maximal-slice
summed bound is known to be exceeded wherever sin(2*theta) < 0.
"""

import argparse
import math

import numpy as np

from svl import DomainError, OptimizerOptions, StateSpec, verify_tradeoff


def check(spec, bound, opts):
    report = verify_tradeoff(spec, bound, opts)
    verdict = "ok" if report.satisfied else "VIOLATED"
    params = ", ".join(f"{k}={float(v):.4f}" for k, v in report.params.items())
    print(f"{bound:10s} {report.family:6s} [{params}] "
          f"lhs={report.lhs:9.5f} rhs={report.rhs:9.5f} "
          f"gap={report.gap:+9.5f} {verdict}")
    return report.satisfied


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=7,
                    help="theta/gamma grid points per family (default 7)")
    ap.add_argument("--restarts", type=int, default=16)
    ap.add_argument("--seed", type=int, default=OptimizerOptions.seed)
    args = ap.parse_args()
    if args.points < 1:
        ap.error(f"argument --points: need at least 1, got {args.points}")
    try:
        opts = OptimizerOptions(restarts=args.restarts, seed=args.seed)
    except DomainError as e:
        ap.error(str(e))

    violated = 0
    for theta in np.linspace(0.0, math.pi / 2, args.points):
        spec = StateSpec("GGHZ", 4, {"theta": float(theta)})
        violated += not check(spec, "theorem1", opts)
    for theta in np.linspace(0.1, math.pi / 2, args.points):
        spec = StateSpec("GGHZ", 5, {"theta": float(theta)})
        violated += not check(spec, "corollary1", opts)
    for theta in np.linspace(math.pi / 2 + 0.01, 1.5 * math.pi - 0.01,
                             args.points):
        spec = StateSpec("MS", 4, {"theta": float(theta)})
        violated += not check(spec, "theorem2", opts)
    for theta in np.linspace(math.pi, 1.2 * math.pi, max(args.points // 2, 2)):
        spec = StateSpec("MS", 5, {"theta": float(theta)})
        violated += not check(spec, "corollary2", opts)
    rng = np.random.default_rng(args.seed)
    for _ in range(args.points):
        v = np.abs(rng.normal(size=5))
        v /= np.linalg.norm(v)
        spec = StateSpec("WCLASS", 4, dict(zip(
            ("alpha", "beta", "gamma", "delta", "lambda"), map(float, v))))
        violated += not check(spec, "theorem3", opts)
    for gamma in np.linspace(0.0, 1.0, args.points):
        d = math.sqrt(max(1.0 - gamma**2, 0.0))
        spec = StateSpec("WCLASS", 4, {"alpha": 0.0, "beta": 0.0,
                                       "gamma": float(gamma), "delta": d,
                                       "lambda": 0.0})
        violated += not check(spec, "eqn3p", opts)

    print(f"\n{violated} unsatisfied rows (expected in the maximal-slice "
          f"family for sin(2*theta) < 0)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
