"""Statistics the benchmark reports: percentiles, crossings, spreads.

Pure functions over plain numbers, shared by the workloads (which turn
raw samples into metrics) and by ``compare`` (which turns repeated runs
into verdicts).  Nothing here imports the program under test.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Tail percentiles in the order they are tried: the highest one with at
#: least ``MIN_BEYOND`` samples above it is the one reported.
TAIL_PERCENTILES = (99.0, 98.0, 95.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default definition)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """``(q, value)`` for the highest of p99/p98/p95 with >= 10 samples beyond.

    A percentile supports a claim about the tail only when enough samples
    lie above it; ``None`` when even p95 has fewer than ``MIN_BEYOND``.
    """
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q, percentile(values, q)
    return None


def fail_frac(attempted: int, failed: int = 0, refused: int = 0, expired: int = 0) -> float:
    """Share of attempted operations that failed, were refused or expired."""
    if attempted <= 0:
        return 0.0
    return (failed + refused + expired) / attempted


@dataclass(frozen=True)
class Rung:
    """One fixed-rate phase of an open-loop ladder."""

    rate: float
    value: float | None  # the limited quantity (tail ms, attainment); None = unmeasured
    fail_frac: float = 0.0


def max_rate(
    rungs: Sequence[Rung],
    limit: float,
    higher_is_better: bool = False,
    max_fail_frac: float | None = None,
) -> float:
    """Highest rate meeting ``limit``, interpolated between adjacent rungs.

    A rung is over the limit when its value is missing, lies on the wrong
    side of ``limit``, or (with ``max_fail_frac``) too many of its
    operations failed.  Scanning upward, the answer lies between the last
    passing rung and the first failing one: linearly interpolated where
    the value crosses the limit, or the passing rung's rate when the
    failing rung failed on ``fail_frac`` alone.  Every rung passing gives
    the top rate (a lower bound); the lowest rung failing gives 0.
    """
    ordered = sorted(rungs, key=lambda r: r.rate)
    if not ordered:
        raise ValueError("no rungs")

    def over(r: Rung) -> bool:
        if r.value is None or (max_fail_frac is not None and r.fail_frac > max_fail_frac):
            return True
        return r.value < limit if higher_is_better else r.value > limit

    for i, rung in enumerate(ordered):
        if not over(rung):
            continue
        if i == 0:
            return 0.0
        prev = ordered[i - 1]
        value_over = rung.value is not None and (
            rung.value < limit if higher_is_better else rung.value > limit
        )
        if not value_over or rung.value == prev.value:
            return prev.rate
        share = (limit - prev.value) / (rung.value - prev.value)
        return prev.rate + share * (rung.rate - prev.rate)
    return ordered[-1].rate


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
