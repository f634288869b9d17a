"""Sample summaries shared by every workload of the benchmark.

A timing is reported as its median plus the highest percentile that still has
at least ``TAIL_BEYOND`` samples beyond it, together with the sample count, so
a tail is never read off a handful of points.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie strictly beyond the reported tail value.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Summary:
    """Median, tail value, the tail's percentile rank and the sample count."""

    n: int
    median: float
    tail: float
    tail_pct: float


def summarize(samples: Sequence[float]) -> Summary:
    """Median and highest percentile with ``TAIL_BEYOND`` samples beyond it.

    With ``n`` sorted samples the tail is the ``TAIL_BEYOND + 1``-th largest
    value, which sits at percentile ``100 * (n - TAIL_BEYOND) / n``.  With
    ``TAIL_BEYOND`` samples or fewer no such percentile exists, and the
    maximum is reported at percentile 100.
    """
    if not samples:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(float(x) for x in samples)
    n = len(ordered)
    median = statistics.median(ordered)
    if n <= TAIL_BEYOND:
        return Summary(n=n, median=median, tail=ordered[-1], tail_pct=100.0)
    return Summary(
        n=n,
        median=median,
        tail=ordered[n - TAIL_BEYOND - 1],
        tail_pct=100.0 * (n - TAIL_BEYOND) / n,
    )
