"""Percentiles and the rule for which one a sample can support."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Percentiles the benchmark may report, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile for it to be reportable.
MIN_BEYOND = 10


def _rank(count: int, p: float) -> int:
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(p * count / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``%
    of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), p) - 1]


def beyond(count: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile."""
    return count - _rank(count, p)


def reportable_percentile(count: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` samples beyond it, or None for too few samples."""
    supported = [p for p in PERCENTILES if beyond(count, p) >= MIN_BEYOND]
    return supported[-1] if supported else None
