"""Window estimators shared by every workload.

This host changes speed over minutes, so a statistic over all the
samples of a run (a mean, a raw p90) moves with whichever regime the
run happened to sit in.  Every timing the benchmark reports is
therefore a *median over whole windows* of a per-window statistic: a
slow burst spoils the windows it covers and the median drops them.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentile_of(q: float) -> Callable[[Sequence[float]], float]:
    """The per-window statistic ``window -> q-th percentile``."""
    return lambda window: percentile(window, q)


def window_stats(samples: Sequence[float], size: int,
                 stat: Callable[[Sequence[float]], float]) -> List[float]:
    """``stat`` of every whole window of ``size`` consecutive samples.

    A trailing partial window is dropped, so every value summarises the
    same amount of work.
    """
    if size < 1:
        raise ValueError("window size must be >= 1, got %d" % size)
    whole = len(samples) - len(samples) % size
    return [stat(samples[start:start + size])
            for start in range(0, whole, size)]


def window_medians(samples: Sequence[float], size: int,
                   stat: Callable[[Sequence[float]], float]
                   = statistics.median) -> float:
    """Median over whole windows of the window's ``stat``."""
    per_window = window_stats(samples, size, stat)
    if not per_window:
        raise ValueError("need at least one whole window of %d samples, "
                         "got %d samples" % (size, len(samples)))
    return statistics.median(per_window)


def middle_half_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median.

    The spread the driver computes over the ten runs of a set
    (``statistics.quantiles(values, n=4)``).
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))
