"""Sample summaries: the median, and the highest percentile with at least
ten samples beyond it, each stated with the sample count."""

from __future__ import annotations

import statistics

# percentiles tried from the top; a run reports the first one it can support
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def high_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest p in LADDER with at least MIN_BEYOND samples
    above it, or None when there are too few samples for any."""
    n = len(values)
    for p in LADDER:
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def describe(name: str, unit: str, values) -> str:
    """One line: median, highest supported percentile, and sample count."""
    if not values:
        return f"{name:<16} no samples"
    high = high_percentile(values)
    tail = f"p{high[0]:g} {high[1]:.6g}" if high else f"no p>=50 (needs {2 * MIN_BEYOND})"
    return f"{name:<16} median {statistics.median(values):.6g} {unit}  {tail}  n={len(values)}"
