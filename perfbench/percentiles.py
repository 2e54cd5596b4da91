"""Nearest-rank percentiles that refuse to report an unsupported tail,
and the quartile spread the benchmark's steadiness is judged by."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples beyond the requested percentile."""


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by the nearest-rank rule:
    the smallest sample with at least ``q``% of all samples at or below
    it.  Refuses when fewer than :data:`MIN_BEYOND` samples lie beyond."""
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            "p%g of %d samples has %d beyond it (need %d)"
            % (q, len(ordered), beyond, MIN_BEYOND)
        )
    return ordered[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")
