"""Sample statistics with the benchmark's percentile rule.

A latency percentile is reported only when at least
:data:`MIN_BEYOND` samples lie beyond it, so a tail is never read off
one or two slow samples.  Percentiles are nearest-rank: the ``p``-th
percentile of ``n`` sorted samples is the one at index
``ceil(p / 100 * n) - 1``.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "MIN_BEYOND",
    "TAIL_PERCENTILES",
    "beyond",
    "min_samples",
    "percentile",
    "summarize",
    "tail_percentile",
]

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _rank(p: float, n: int) -> int:
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p!r}")
    if n < 1:
        raise ValueError("percentile of an empty sample")
    return max(math.ceil(p / 100.0 * n) - 1, 0)


def beyond(p: float, n: int) -> int:
    """Samples strictly after the ``p``-th percentile's rank."""
    return n - 1 - _rank(p, n)


def min_samples(p: float) -> int:
    """The smallest sample count that supports percentile ``p``."""
    n = 1
    while beyond(p, n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (any order)."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered))]


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` that ``n`` samples support."""
    supported = [p for p in TAIL_PERCENTILES if beyond(p, n) >= MIN_BEYOND]
    return supported[-1] if supported else None


def summarize(values: Sequence[float]) -> dict:
    """Median, count, and the highest supported tail percentile."""
    n = len(values)
    summary: dict = {"n": n}
    if n == 0:
        return summary
    summary["median"] = float(statistics.median(values))
    tail = tail_percentile(n)
    if tail is not None:
        summary["tail_percentile"] = tail
        summary["tail"] = percentile(values, tail)
    return summary
