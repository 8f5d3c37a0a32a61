"""Order statistics over raw samples.

Every percentile the benchmark reports comes from here and is computed
from the raw samples a run collected — never from histogram buckets,
whose upper edges can sit above the largest sample.

Percentiles use the nearest-rank rule: the ``q``-quantile of ``n``
sorted samples is the sample at 0-based index ``ceil(q·n) − 1``.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

__all__ = ["TAIL_BEYOND", "TAIL_FLOOR", "median", "percentile", "tail"]

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: ...but the tail is never reported below this percentile.
TAIL_FLOOR = 0.9


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of non-empty samples."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    index = max(math.ceil(q * len(ordered)) - 1, 0)
    return ordered[index]


def median(samples: Sequence[float]) -> float:
    """The nearest-rank median (a sample, never an interpolated value)."""
    return percentile(samples, 0.5)


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """The tail percentile of ``samples``: returns ``(value, q)``.

    ``q`` is the highest percentile that leaves ``beyond`` samples above
    it, ``(n − beyond) / n``, but never below the p90: with fewer than
    ``10·beyond`` samples the p90 is reported instead, and fewer than
    ``beyond`` samples lie beyond it (the printed sample count says so).
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    q = max((len(samples) - beyond) / len(samples), TAIL_FLOOR)
    return percentile(samples, q), q
