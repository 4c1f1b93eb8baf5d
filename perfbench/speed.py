"""Scaling measured times to a fixed reference speed.

The benchmark shares its machine with other tenants, and their load changes
how fast this process runs by up to about 1.7x, in phases of seconds to
minutes.  So a fixed pure-Python loop is timed before the first measured
interval, after every SAMPLE_EVERY_S of measured time and at the end of each
group of intervals, and each group is scaled by the reference timings taken
while it ran.  A slowdown that hits the loop and omlat alike cancels out, and
scaled times read as on a machine where the loop takes REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0007
SAMPLE_EVERY_S = 0.25


def _reference_loop() -> int:
    # Table lookups, comparisons, string keys and dict stores, as in omlat.
    table = tuple(tuple((i * j + 1) % 13 for j in range(13)) for i in range(13))
    seen = {}
    hits = 0
    for x in range(39):
        row = table[x % 13]
        for y in range(13):
            v = row[y]
            for z in range(13):
                if table[v][z] == table[x % 13][row[z]]:
                    hits += 1
            seen[f"{x}.{y}"] = (v, hits)
    return hits + len(seen)


def reference_time() -> float:
    """Median of five timings of the reference loop."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Scaler:
    """Groups measured intervals and scales each group by one factor.

    The factor is REFERENCE_S over the median of the reference timings taken
    while the group ran, the two that bracket it included.  A group is one
    pass, or one set-up: one factor per pass keeps the reference's own
    jitter out of single operations, so it cannot inflate the tail.
    """

    def __init__(self, reference=reference_time):
        self._reference = reference
        self.references = [reference()]
        self.groups: list[tuple[object, list[float], float]] = []  # (key, raw, scale)
        self._raw: list[float] = []
        self._first = 0
        self._since = 0.0

    def add(self, raw: float) -> None:
        self._raw.append(raw)
        self._since += raw
        if self._since >= SAMPLE_EVERY_S:
            self.references.append(self._reference())
            self._since = 0.0

    def close(self, key) -> None:
        """End the group of intervals added since the last close."""
        self.references.append(self._reference())
        scale = REFERENCE_S / statistics.median(self.references[self._first :])
        self.groups.append((key, self._raw, scale))
        self._raw = []
        self._first = len(self.references) - 1
        self._since = 0.0
