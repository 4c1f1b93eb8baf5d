"""Order statistics for the benchmark's latency samples."""

from __future__ import annotations

import math

# Percentiles a tail may be reported at, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


def nearest_rank(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending, nonempty list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least MIN_BEYOND of `count` samples
    above it, or the median when there is none."""
    for pct in reversed(TAIL_LADDER):
        if count - max(1, math.ceil(pct / 100.0 * count)) >= MIN_BEYOND:
            return pct
    return TAIL_LADDER[0]
