"""Order statistics for the benchmark's latency and spread reports."""

from __future__ import annotations

import math
import statistics


def tail(samples) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Percentiles are nearest-rank: percentile p reads the sample at rank
    ceil(p * N / 100) of the N sorted samples, leaving N - rank samples
    beyond it.  Below 100 samples that rule would report p90 or less,
    down to the minimum at N = 11, so the tail never drops below p90:
    with fewer samples it is p90, which is the maximum for N < 10.
    Returns (value, percentile, N).
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    p = max(90, 100 * (n - 10) // n)
    rank = max(1, math.ceil(p * n / 100))
    return xs[rank - 1], p, n


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
