"""Summaries of repeated timings: median, quartiles and sample count."""
from __future__ import annotations

import statistics
from typing import Sequence

TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile that leaves at least ten samples beyond
    it, or None when there are too few samples for any."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p
    return None


def summarize(values: Sequence[float]) -> dict:
    """Median, first and third quartile (``statistics.quantiles`` with
    n=4), the tail percentile when the sample count allows one, and the
    sample count itself."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("no samples to summarize")
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    out = {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}
    p = tail_percentile(len(xs))
    if p is not None:
        out[f"p{p:g}"] = statistics.quantiles(xs, n=1000)[round(p * 10) - 1]
    return out

