"""The ILP / window-drain model underpinning contributor C3.

Interval analysis models the branch resolution time as the time needed
to drain the dependence chain feeding the branch out of the window.
Two tools implement that here:

* an *ILP profile*: the average dataflow critical-path length ``K(w)``
  of consecutive ``w``-instruction windows, fitted to the power law
  ``K(w) = alpha * w**beta`` (classically ``beta ~ 0.5``);
* exact *backward-slice* evaluation: the critical path, under a chosen
  latency function, of the chain ending at one specific branch within
  its window — the measurable core of the five-way decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, List, Optional, Sequence, Tuple

from repro.isa.opcodes import OpClass
from repro.trace.stream import Trace

LatencyFn = Callable[[int], int]  # seq -> execution latency in cycles


def unit_latency(trace: Trace) -> LatencyFn:
    """Every instruction takes one cycle — the pure-ILP measure."""
    return lambda seq: 1


def fu_latency(trace: Trace, fu_specs, config=None) -> LatencyFn:
    """Functional-unit latencies, L1-hit memory (isolates C4 from C5).

    When ``config`` is given, loads are charged the L1-hit latency —
    the baseline load-to-use cost, which belongs with the functional
    unit latencies (C4), not with the short-miss contribution (C5).
    """
    records = trace.records
    l1_latency = config.l1_latency if config is not None else 0

    def latency(seq: int) -> int:
        record = records[seq]
        base = fu_specs[record.op_class].latency
        if record.op_class is OpClass.LOAD:
            base += l1_latency
        return base

    return latency


def full_latency(trace: Trace, fu_specs, config) -> LatencyFn:
    """FU + L1 latencies plus each load's actual miss latency (adds C5)."""
    records = trace.records

    def latency(seq: int) -> int:
        record = records[seq]
        base = fu_specs[record.op_class].latency
        if record.op_class is OpClass.LOAD:
            if record.dl2_miss:
                base += config.memory_latency
            elif record.dl1_miss:
                base += config.l2_latency
            else:
                base += config.l1_latency
        return base

    return latency


#: Finish-time cells (window offsets x windows) one lockstep batch
#: holds. Overlapping windows (``stride < window``) multiply the cells
#: a trace needs, so the windows are taken in batches of this size.
_BATCH_CELLS = 1 << 16


def _latency_column(trace: Trace, latency_of: Optional[LatencyFn]):
    """``latency_of(seq)`` for every record, evaluated once each."""
    import numpy as np

    n = len(trace.records)
    if latency_of is None:
        return np.ones(n, dtype=np.int64)
    return np.asarray(list(map(latency_of, range(n))))


def _dependence_columns(trace: Trace):
    """Dependence distances as a ``(width, n)`` array: row ``j`` holds
    each record's ``j``-th distance, 0 where it has fewer. Built once
    from the trace's CSR (per-record counts + flat distances)."""
    import numpy as np

    deps = [record.deps for record in trace.records]
    n = len(deps)
    counts = np.fromiter(map(len, deps), np.int64, n)
    total = int(counts.sum())
    flat = np.fromiter(chain.from_iterable(deps), np.int64, total)
    starts = np.cumsum(counts) - counts
    width = int(counts.max(initial=0))
    columns = np.zeros((width, n), dtype=np.int64)
    for j in range(width):
        has = counts > j
        columns[j, has] = flat[starts[has] + j]
    return columns


def _window_criticality(deps, latency, window: int, stride: int) -> float:
    """Mean critical path of the windows ``[s, s + window)``,
    ``s = 0, stride, ...``, over prepared columns.

    The windows are independent dataflow graphs, so all of them advance
    together: step ``t`` finishes offset ``t`` of every window with one
    gather per dependence slot. ``finish`` is laid out offset-major with
    a leading row of zeros, which is what a producer outside the window
    reads. Row ``t + 1`` starts at zero, like the scalar ``begin``, and
    takes the running maximum; a padded slot (distance 0) reads that
    row itself, which leaves the maximum unchanged.
    """
    import numpy as np

    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = len(latency)
    if not n:
        return 0.0
    size = min(window, n)
    starts = np.arange(0, max(n - window + 1, 1), stride)
    offsets = np.arange(size)[:, None]
    maxima = []
    per_batch = max(1, _BATCH_CELLS // size)
    for first in range(0, len(starts), per_batch):
        batch = starts[first:first + per_batch]
        rows = len(batch)
        seq = offsets + batch  # (size, rows): offset t of each window
        lat = latency[seq]
        column = np.arange(rows)
        sources = [
            np.maximum(offsets + 1 - dist[seq], 0) * rows + column
            for dist in deps
        ]
        finish = np.zeros((size + 1, rows), dtype=latency.dtype)
        cells = finish.reshape(-1)
        for t in range(size):
            begin = finish[t + 1]
            for source in sources:
                np.maximum(begin, cells[source[t]], out=begin)
            begin += lat[t]
        maxima.append(finish.max(axis=0))
    # Summed in window order, as one running float total would be.
    total = np.cumsum(np.concatenate(maxima), dtype=np.float64)[-1]
    return float(total) / len(starts)


def window_criticality(
    trace: Trace,
    window: int,
    latency_of: Optional[LatencyFn] = None,
    stride: Optional[int] = None,
) -> float:
    """Average critical-path length of ``window``-sized chunks.

    Consecutive (non-overlapping by default) windows of the trace are
    evaluated as independent dataflow graphs: dependences reaching
    before the window are treated as satisfied, exactly as a window
    full of post-miss instructions would see them.
    """
    return _window_criticality(
        _dependence_columns(trace),
        _latency_column(trace, latency_of),
        window,
        stride or window,
    )


@dataclass(frozen=True)
class ILPFit:
    """Power-law fit ``K(w) = alpha * w**beta`` of the ILP profile."""

    alpha: float
    beta: float
    windows: Tuple[int, ...]
    criticality: Tuple[float, ...]

    def predict_drain(self, occupancy: float) -> float:
        """Predicted drain (resolution) time for a window holding
        ``occupancy`` instructions."""
        if occupancy <= 0:
            return 0.0
        return self.alpha * occupancy**self.beta

    def predict_ipc(self, window: int) -> float:
        """Steady-state issue rate sustained with a window of size w."""
        drain = self.predict_drain(window)
        if drain <= 0:
            return 0.0
        return window / drain

    @property
    def r_squared(self) -> float:
        """Goodness of the fit in log space."""
        logs = [math.log(k) for k in self.criticality if k > 0]
        if len(logs) < 2:
            return 1.0
        mean = sum(logs) / len(logs)
        ss_tot = sum((y - mean) ** 2 for y in logs)
        ss_res = 0.0
        for w, k in zip(self.windows, self.criticality):
            if k <= 0:
                continue
            predicted = math.log(self.alpha) + self.beta * math.log(w)
            ss_res += (math.log(k) - predicted) ** 2
        if ss_tot == 0:
            return 1.0
        return 1.0 - ss_res / ss_tot


DEFAULT_ILP_WINDOWS: Tuple[int, ...] = (8, 16, 32, 64, 128, 256)


def fit_ilp_profile(
    trace: Trace,
    windows: Sequence[int] = DEFAULT_ILP_WINDOWS,
    latency_of: Optional[LatencyFn] = None,
) -> ILPFit:
    """Measure K(w) over ``windows`` and fit the power law in log space.

    The latency and dependence columns are built once and shared by
    every window size."""
    if len(windows) < 2:
        raise ValueError("need at least two window sizes to fit")
    deps = _dependence_columns(trace)
    latency = _latency_column(trace, latency_of)
    ks = [_window_criticality(deps, latency, w, w) for w in windows]
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
        alpha=alpha,
        beta=beta,
        windows=tuple(windows),
        criticality=tuple(ks),
    )


def backward_slice_latency(
    trace: Trace,
    branch_seq: int,
    window_start: int,
    latency_of: LatencyFn,
    satisfied: Optional[Callable[[int], bool]] = None,
) -> int:
    """Critical-path length of the chain ending at ``branch_seq``.

    Only instructions in ``[window_start, branch_seq]`` participate —
    the window content when the branch dispatched. Dependences that
    reach before the window are treated as already satisfied, matching
    the machine (those producers committed long ago). ``satisfied``
    optionally marks additional producers as already complete — the
    contributor decomposition passes the instructions whose simulated
    completion preceded the branch's dispatch, anchoring the slice at
    the moment the resolution clock starts.
    """
    if not 0 <= window_start <= branch_seq < len(trace.records):
        raise ValueError(
            f"bad slice bounds [{window_start}, {branch_seq}] "
            f"for trace of {len(trace.records)}"
        )
    records = trace.records

    def in_window(seq: int) -> bool:
        if seq < window_start:
            return False
        return satisfied is None or not satisfied(seq)

    # Collect the backward slice by walking dependences from the branch.
    in_slice = {branch_seq}
    stack = [branch_seq]
    while stack:
        seq = stack.pop()
        for dist in records[seq].deps:
            producer = seq - dist
            if producer >= 0 and in_window(producer) and producer not in in_slice:
                in_slice.add(producer)
                stack.append(producer)
    # Evaluate finish times in program order over the slice.
    finish = {}
    for seq in sorted(in_slice):
        begin = 0
        for dist in records[seq].deps:
            producer = seq - dist
            if producer in finish:
                begin = max(begin, finish[producer])
        finish[seq] = begin + latency_of(seq)
    return finish[branch_seq]
