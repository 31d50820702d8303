"""Small statistics shared by the end-to-end and per-layer reports."""

import math
import statistics

# Fits skip points below this: there timer and call overhead dominate.
MIN_FIT_S = 1e-4


def ratio(num, den):
    """num / den, or 0.0 when nothing was measured (every operation
    failed); such a run is already reported as incorrect."""
    return num / den if den else 0.0


def geomean(num, den):
    """Geometric mean of num[k] / den[k], skipping pairs where either is
    0 or missing (an export with no inputs to sample, a failed op)."""
    logs = [math.log(n / d) for n, d in zip(num, den) if n and d]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def loglog_fit(points):
    """Least-squares slope of log(time) on log(size), and its R^2, over
    (size, seconds) points at or above MIN_FIT_S.  (0.0, 0.0) when fewer
    than two distinct sizes remain."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t >= MIN_FIT_S]
    if len({x for x, _ in pts}) < 2:
        return 0.0, 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    syy = sum((y - my) ** 2 for _, y in pts)
    r2 = sxy * sxy / (sxx * syy) if syy else 1.0
    return sxy / sxx, r2
