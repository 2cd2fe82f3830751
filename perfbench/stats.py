"""Summary statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

PERCENTILE_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def percentile(values, p: float):
    """Nearest-rank p-th percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def top_percentile(values, min_beyond: int = 10):
    """The highest ladder percentile with at least min_beyond samples beyond
    it, as (p, value), or None when there are too few samples."""
    for p in PERCENTILE_LADDER:
        value, beyond = percentile(values, p)
        if beyond >= min_beyond:
            return p, value
    return None


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(values, n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def describe(values, unit: str) -> str:
    """'median <v> <unit>, p<P> <v>, n=<count>' for a list of samples."""
    text = f"median {statistics.median(values):.6g} {unit}"
    top = top_percentile(values)
    if top is None:
        text += ", no percentile has 10 samples beyond it"
    else:
        text += f", p{top[0]:g} {top[1]:.6g} {unit}"
    return text + f", n={len(values)}"
