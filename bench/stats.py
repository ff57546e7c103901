"""Order statistics the benchmark reports.

Percentiles are nearest-rank, so every reported latency is one that was
actually measured. A tail percentile is only meaningful when enough
samples lie beyond it; :func:`tail_percentile` applies the rule "the
highest percentile with at least ten samples beyond it".
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 50.0)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct``-th percentile of ``values`` (0 < pct <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``pct``-th."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> Optional[float]:
    """Highest candidate percentile with ``MIN_BEYOND`` samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None
