"""A fixed reference computation that tracks how fast the host runs now.

On a shared host the same work can take 30–50% longer from one minute
to the next (CPU steal, a busy sibling hyperthread).  Timing this fixed
mix of interpreter, NumPy and JSON work right before and after a phase,
and scaling the phase's time by ``NOMINAL_S`` over it, reports the phase
in seconds at a steady nominal host speed: a program change still moves
the number, a host slowdown during the run mostly cancels out.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# The reference's own time on a quiet 2-vCPU host; a fixed scale, so
# normalized values read close to wall seconds on such a host.
NOMINAL_S = 0.04
REPEATS = 5

_PAYLOAD = {"cells": [[i, i * 0.5, str(i)] for i in range(5_000)]}


def _work() -> None:
    values = np.random.default_rng(0).standard_normal(300_000)
    np.argsort(values)
    np.abs(values - values.mean()).sum()
    total = 0
    for i in range(200_000):
        total += i % 7
    json.loads(json.dumps(_PAYLOAD))


def reference_s() -> float:
    """Median wall time of the reference computation, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def around(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the mean reference time around it."""
    before = reference_s()
    result = fn(*args, **kwargs)
    return result, (before + reference_s()) / 2.0


def nominal(value: float, reference: float) -> float:
    """``value`` (a duration) at nominal host speed."""
    return value * NOMINAL_S / reference
