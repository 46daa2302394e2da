"""Order statistics used by every workload and by ``compare``."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence (``q`` in 0..1)."""
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(n: int, q: float) -> int:
    """How many samples lie beyond the ``q`` percentile of ``n`` samples."""
    return n - max(1, math.ceil(q * n)) if n else 0


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the benchmark contract is judged by."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)


def calm_level(values: Sequence[float]) -> float:
    """Mean of the lowest quarter of ``values`` (of at least one value).

    The location estimate for a time that cannot be scaled by the yardstick
    (a wait is timers plus processing; a set-up runs in a child process),
    measured slice by slice or repeat by repeat on a host that other tenants
    slow down in bursts: such interference only ever adds time, and from run
    to run it hits anything from none to most of the slices.  The fastest
    quarter is the time at the host's own speed (README, "Harness policy",
    compares the estimators on the same runs)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return statistics.fmean(ordered[: max(1, len(ordered) // 4)])


def slice_bounds(start: float, end: float, step: float) -> list[float]:
    """Cut ``[start, end]`` into a whole number of equal slices of about
    ``step`` seconds; returns their boundaries."""
    slices = max(1, round((end - start) / step))
    return [start + (end - start) * k / slices for k in range(slices + 1)]


def slice_medians(
    samples: Iterable[tuple[float, float]], start: float, end: float, step: float
) -> list[float]:
    """Median value of the ``(when, value)`` samples in each slice of
    ``[start, end]`` (see :func:`slice_bounds`), in time order; samples
    outside the window and empty slices are left out."""
    slices = len(slice_bounds(start, end, step)) - 1
    width = (end - start) / slices
    buckets: dict[int, list[float]] = {}
    for when, value in samples:
        if start <= when <= end:
            buckets.setdefault(min(int((when - start) / width), slices - 1), []).append(value)
    return [statistics.median(values) for _index, values in sorted(buckets.items())]
