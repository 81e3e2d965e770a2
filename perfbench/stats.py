"""Order statistics shared by the benchmark and its compare tool."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a run may report, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``p`` in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def highest_supported(n: int, *, beyond: int = 10) -> float | None:
    """The highest of :data:`PERCENTILES` with at least ``beyond`` samples above it."""
    supported = [p for p in PERCENTILES if samples_beyond(n, p) >= beyond]
    return supported[-1] if supported else None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf
