"""Order statistics the benchmark reports.

A timing is reported as its median plus a tail percentile, and a tail
percentile is only meaningful when at least ``MIN_BEYOND`` samples lie
beyond it: p99 needs 1,000 samples, p95 needs 200.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank ``q``."""
    if n <= 0:
        return 0
    return n - _rank(n, q)


def _rank(n: int, q: float) -> int:
    # Nearest-rank: the smallest rank covering a fraction q of samples.
    # The epsilon absorbs float error such as 0.99 * 1000 = 990.0000000001.
    return min(n, max(1, math.ceil(q * n - 1e-9)))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 1] of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ``MIN_BEYOND`` beyond ``q``."""
    return beyond(n, q) >= MIN_BEYOND


def summarize(samples, tail: float) -> dict:
    """Median, the ``tail`` percentile and the counts behind them."""
    n = len(samples)
    return {
        "n": n,
        "p50": percentile(samples, 0.5) if n else None,
        "tail_q": tail,
        "tail": percentile(samples, tail) if n else None,
        "beyond_tail": beyond(n, tail),
        "tail_supported": supported(n, tail),
    }
