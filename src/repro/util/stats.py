"""Small statistics helpers used across measurement and modelling code."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


class OnlineStats:
    """Welford online mean/variance with min/max tracking."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def summary(self) -> Dict[str, float]:
        """Return a plain-dict summary convenient for table rendering."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class Histogram:
    """Integer-valued histogram with exact counts per value.

    Used for interval-length and resolution-time distributions, where the
    domain is small non-negative integers (cycles, instruction counts).
    """

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self.total = 0

    def add(self, value: int, count: int = 1) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        self._counts[value] = self._counts.get(value, 0) + count
        self.total += count

    def count(self, value: int) -> int:
        return self._counts.get(value, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.total == other.total and self._counts == other._counts

    def __repr__(self) -> str:
        return f"Histogram(total={self.total}, values={len(self._counts)})"

    def items(self) -> List[Tuple[int, int]]:
        """Return (value, count) pairs sorted by value."""
        return sorted(self._counts.items())

    @property
    def mean(self) -> float:
        if not self.total:
            return 0.0
        return sum(v * c for v, c in self._counts.items()) / self.total

    def percentile(self, q: float) -> int:
        """Return the smallest value whose CDF reaches ``q`` (0..1]."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"percentile must be in (0, 1], got {q}")
        if not self.total:
            raise ValueError("empty histogram has no percentiles")
        threshold = q * self.total
        acc = 0
        for value, count in self.items():
            acc += count
            if acc >= threshold:
                return value
        return self.items()[-1][0]



def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of a sequence, q in [0, 1]."""
    if not values:
        raise ValueError("empty sequence has no percentiles")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile must be in [0, 1], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lower = int(math.floor(pos))
    upper = int(math.ceil(pos))
    if lower == upper:
        return float(ordered[lower])
    frac = pos - lower
    return ordered[lower] * (1.0 - frac) + ordered[upper] * frac


def bucketize(value: float, edges: Sequence[float]) -> int:
    """Return the index of the bucket containing ``value``.

    ``edges`` are ascending upper bounds of the first ``len(edges)``
    buckets; values above the last edge fall into bucket ``len(edges)``.
    """
    for i, edge in enumerate(edges):
        if value <= edge:
            return i
    return len(edges)
