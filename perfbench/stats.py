"""Order statistics for per-job latencies."""

from __future__ import annotations

import math

TAIL_PERCENTILES = (99, 95, 90)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100 * n))
    return sorted_values[rank - 1], n - rank


def tail(values: list[float]) -> tuple[float, int, int]:
    """The highest of p99, p95 and p90 with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than 100 samples
    no tail percentile qualifies and the median is returned as p50.
    """
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= MIN_BEYOND:
            return value, pct, beyond
    value, beyond = nearest_rank(ordered, 50)
    return value, 50, beyond
