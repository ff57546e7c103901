"""Scalar reference for the lockstep ILP window fit.

``fit_ilp_profile`` in the library advances every window of one size
together, one NumPy step per offset; this module keeps the per-window,
per-record loop it replaced. Differential tests require the two to
return equal fits.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.interval.ilp import DEFAULT_ILP_WINDOWS, ILPFit, LatencyFn, unit_latency
from repro.trace.stream import Trace
from tests.trace.records import records_of


def _scalar_criticality(
    trace: Trace, window: int, latency_of: Optional[LatencyFn]
) -> float:
    """Mean critical path of the consecutive ``window``-sized windows."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if latency_of is None:
        latency_of = unit_latency(trace)
    records = records_of(trace)
    if not records:
        return 0.0
    total = 0.0
    count = 0
    for start in range(0, max(len(records) - window + 1, 1), window):
        stop = min(start + window, len(records))
        finish = [0] * (stop - start)
        longest = 0
        for offset in range(stop - start):
            seq = start + offset
            begin = 0
            for dist in records[seq].deps:
                producer = seq - dist
                if producer >= start:
                    begin = max(begin, finish[producer - start])
            done = begin + latency_of(seq)
            finish[offset] = done
            longest = max(longest, done)
        total += longest
        count += 1
    return total / count


def scalar_fit_ilp_profile(
    trace: Trace,
    windows: Sequence[int] = DEFAULT_ILP_WINDOWS,
    latency_of: Optional[LatencyFn] = None,
) -> ILPFit:
    if len(windows) < 2:
        raise ValueError("need at least two window sizes to fit")
    ks = [_scalar_criticality(trace, w, latency_of) for w in windows]
    xs = [math.log(w) for w in windows]
    ys = [math.log(max(k, 1e-9)) for k in ks]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    beta = sxy / sxx if sxx else 0.0
    alpha = math.exp(mean_y - beta * mean_x)
    return ILPFit(
        alpha=alpha, beta=beta, windows=tuple(windows), criticality=tuple(ks)
    )
