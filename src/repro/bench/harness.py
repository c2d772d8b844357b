"""The latency percentile perfbench reports (``op_p50_s``, ``op_p90_s``)."""

from __future__ import annotations

import math


def percentile(values, p):
    """Linear-interpolated percentile of ``values`` (p in [0, 100])."""
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
