"""Order statistics the benchmark reports.

Kept free of any ``repro`` import so the tests of the benchmark's own
arithmetic run without the placer.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: A tail percentile is only reported when at least this many samples
#: lie beyond it; fewer make the tail one or two unlucky jobs.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """The median; 0.0 for no samples."""
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(values: Sequence[float], cap: int = 90,
                    beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest percentile, at most ``cap``, with ``beyond`` samples
    above it.

    The value is the nearest-rank order statistic of rank
    ``min(n - beyond, ceil(cap * n / 100))``, so at least ``beyond``
    samples lie past it.  When that rank falls below the median's
    (fewer than about ``2 * beyond`` samples) no tail percentile
    qualifies, and the median is returned instead, as percentile 50.

    Returns:
        ``(value, percentile, sample count)``.
    """
    n = len(values)
    if n == 0:
        return 0.0, 50.0, 0
    rank = min(n - beyond, -(-cap * n // 100))
    if rank < math.ceil(n / 2):
        return median(values), 50.0, n
    return float(sorted(values)[rank - 1]), 100.0 * rank / n, n


def interval_union(intervals: Sequence[Tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def divide(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 when the denominator is 0 (a
    bypassed layer, or a workload with no such jobs)."""
    return numerator / denominator if denominator else 0.0
