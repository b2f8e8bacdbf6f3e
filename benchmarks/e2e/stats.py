"""Small statistics helpers shared by the runners and the self-tests.

Kept free of any ``repro`` import so the maths can be tested without the
program under measurement.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in (0, 1]).

    The value returned is always one of the samples, so a p95 over 20
    samples has exactly one sample beyond it.  Raises on an empty input:
    a percentile over nothing is a bug in the caller, not a zero.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median_or_zero(samples: Sequence[float]) -> float:
    """Median of ``samples``; 0.0 when the layer produced no sample."""
    return statistics.median(samples) if samples else 0.0


def due_time(begin: float, rate: float, index: int) -> float:
    """Open-loop schedule: op ``index`` is due at ``begin + index / rate``.

    Latency is counted from this instant, not from when the generator got
    round to sending, so a stall is charged to the ops scheduled during it.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    return begin + index / rate


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance of ``values`` as a share of their median.

    The same arithmetic the acceptance driver applies to ten runs
    (``statistics.quantiles(values, n=4)``).
    """
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
