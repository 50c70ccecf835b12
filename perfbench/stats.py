"""Summary statistics shared by the runner and the suite."""
from __future__ import annotations

import math
import statistics

# Percentiles tried for the "high percentile" of a timing, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def high_percentile(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it.

    Nearest-rank percentile: the value at rank ceil(p/100 * n).  Returns
    None when there are too few samples for even the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return p, float(ordered[rank - 1])
    return None


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def describe(values) -> str:
    """'median  pXX value  n=N' for one metric's samples."""
    hp = high_percentile(values)
    high = f"p{hp[0]:g}={hp[1]:.6g}" if hp else "p-high=n/a"
    return f"median={median(values):.6g}  {high}  n={len(values)}"
