"""Arithmetic shared by the benchmark: percentiles and failure ratios.

Kept free of ``repro`` imports so the orchestrator can use it before it
knows whether the program under test is present.
"""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (``q`` in [0, 1]) of ``values``.

    This is the "type 7" estimator (numpy's default): the median of an
    even-length list is the mean of its two middle values, so a median
    over few sessions still moves smoothly with every sample.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def median(values) -> float:
    return percentile(values, 0.5)


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed over attempted sessions; a run that attempted nothing failed."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def count_failures(outcomes) -> int:
    """Count failed session outcomes.

    Each outcome is a dict with a ``status`` (``released`` or anything
    else: aborted, crashed, rejected, timeout, lost), ``accepted`` and
    ``matches`` (the output equalled the solo seeded replay).  A session
    passes only when it was released, accepted and matched.
    """
    return sum(
        1
        for outcome in outcomes
        if not (
            outcome.get("status") == "released"
            and outcome.get("accepted") is True
            and outcome.get("matches") is True
        )
    )


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total
