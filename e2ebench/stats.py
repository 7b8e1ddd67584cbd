"""Order statistics for the benchmark: nearest-rank percentiles with a
sample-count and class-gap sanity check, medians and geometric means.

Nearest-rank (no interpolation) is deliberate: an interpolated
percentile that falls between two latency classes reports a time no
request took, and moves by the width of the gap when one sample changes
side. The gap check refuses such a percentile outright.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence

#: At least this many samples must lie beyond a reported percentile.
MIN_BEYOND = 10
#: Half-width, in percent of the sample count, of the rank window the
#: gap check compares.
GAP_WINDOW = 5.0
#: Largest allowed ratio between the samples at rank p+window and p-window.
GAP_RATIO = 1.5


class PercentileError(RuntimeError):
    """A percentile the run must not report: too few samples beyond it,
    or it sits on a gap between latency classes."""


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank ``percent``-th percentile of ``values``: the
    smallest sample with at least ``percent``% of the samples at or
    below it."""
    if not values:
        raise PercentileError("no samples")
    if not 0 < percent <= 100:
        raise ValueError(f"percentile {percent} outside (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), percent) - 1]


def _rank(count: int, percent: float) -> int:
    # round() guards against 0.9 * 100 = 90.00000000000001 style noise.
    return max(1, min(count, math.ceil(round(percent * count / 100.0, 9))))


def checked_percentile(values: Sequence[float], percent: float) -> Dict[str, float]:
    """``{"value", "samples", "beyond", "low", "high"}`` for one
    percentile, raising :class:`PercentileError` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it, or when the samples at the
    ranks ``percent ± GAP_WINDOW`` differ by more than :data:`GAP_RATIO`
    (the percentile sits on a gap between classes)."""
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise PercentileError("no samples")
    rank = _rank(count, percent)
    beyond = count - rank
    if beyond < MIN_BEYOND:
        raise PercentileError(
            f"p{percent:g} of {count} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    low = ordered[_rank(count, max(percent - GAP_WINDOW, 1e-9)) - 1]
    high = ordered[_rank(count, min(percent + GAP_WINDOW, 100.0)) - 1]
    if low <= 0 or high > GAP_RATIO * low:
        raise PercentileError(
            f"p{percent:g} of {count} samples sits on a class gap: rank "
            f"p{percent - GAP_WINDOW:g} = {low:.6g}, p{percent + GAP_WINDOW:g} "
            f"= {high:.6g} (ratio > {GAP_RATIO})"
        )
    return {
        "value": ordered[rank - 1],
        "samples": count,
        "beyond": beyond,
        "low": low,
        "high": high,
    }


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    data: List[float] = list(values)
    if not data or min(data) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in data) / len(data))


def geomean_of_medians(samples_by_instance: Dict[str, List[float]]) -> float:
    """Geometric mean over instances of each instance's median sample:
    every instance weighs the same, small or large."""
    return geomean(median(v) for v in samples_by_instance.values())
