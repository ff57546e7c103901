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
from typing import Callable, List, Optional, Sequence, Tuple

from repro.trace.stream import Trace

LatencyFn = Callable[[int], int]  # seq -> execution latency in cycles


class LatencyColumn:
    """Per-record execution latencies held as one column.

    ``column`` is the NumPy array the ILP fit reads directly; calling
    the object with a seq returns that record's latency as a Python
    int, so it is a :data:`LatencyFn` for slice walks and oracles.
    """

    __slots__ = ("column", "_values")

    def __init__(self, column):
        self.column = column
        self._values: Optional[List[int]] = None

    def __call__(self, seq: int) -> int:
        if self._values is None:
            self._values = self.column.tolist()
        return self._values[seq]


def load_latencies(
    trace: Trace, fu_specs, hit: int, short: int, long: Optional[int] = None
) -> LatencyColumn:
    """FU latency of every record, plus a D-cache latency for loads.

    A load adds ``long`` when it misses to memory (only when ``long``
    is given), else ``short`` when it misses L1, else ``hit``, priced
    by :func:`repro.pipeline.annotate.price_loads` as the detailed
    core's oracle prices it. The FU latency is a lookup by op code,
    made for the classes the trace holds.
    """
    import numpy as np

    from repro.pipeline.annotate import price_loads
    from repro.trace.columns import OP_CLASSES, load_classes

    op = trace.op
    present = np.bincount(op, minlength=len(OP_CLASSES)) > 0
    table = np.asarray(
        [
            fu_specs[cls].latency if here else 0
            for cls, here in zip(OP_CLASSES, present.tolist())
        ]
    )
    column = table.take(op)
    classes = load_classes(trace, long_misses=long is not None)
    column += price_loads(classes, hit, short, 0 if long is None else long)
    return LatencyColumn(column)


def unit_latency(trace: Trace) -> LatencyColumn:
    """Every instruction takes one cycle — the pure-ILP measure."""
    import numpy as np

    return LatencyColumn(np.ones(len(trace), dtype=np.int64))


def fu_latency(trace: Trace, fu_specs, config=None) -> LatencyColumn:
    """Functional-unit latencies, L1-hit memory (isolates C4 from C5).

    When ``config`` is given, loads are charged the L1-hit latency —
    the baseline load-to-use cost, which belongs with the functional
    unit latencies (C4), not with the short-miss contribution (C5).
    """
    l1_latency = config.l1_latency if config is not None else 0
    return load_latencies(trace, fu_specs, l1_latency, l1_latency)


def full_latency(trace: Trace, fu_specs, config) -> LatencyColumn:
    """FU + L1 latencies plus each load's actual miss latency (adds C5)."""
    return load_latencies(
        trace,
        fu_specs,
        config.l1_latency,
        config.l2_latency,
        config.memory_latency,
    )


#: Finish-time cells (window offsets x windows) one lockstep batch
#: holds. Overlapping windows (``stride < window``) multiply the cells
#: a trace needs, so the windows are taken in batches of this size.
_BATCH_CELLS = 1 << 16


def _latency_column(trace: Trace, latency_of: Optional[LatencyFn]):
    """The latency of every record: a :class:`LatencyColumn`'s column,
    or ``latency_of(seq)`` evaluated once per record."""
    import numpy as np

    n = len(trace)
    if latency_of is None:
        return np.ones(n, dtype=np.int64)
    if isinstance(latency_of, LatencyColumn):
        return latency_of.column
    return np.asarray(list(map(latency_of, range(n))))


def _dependence_columns(trace: Trace):
    """Dependence distances as a ``(width, n)`` array: row ``j`` holds
    each record's ``j``-th distance, 0 where it has fewer. Built once
    from the trace's CSR (per-record counts + flat distances)."""
    import numpy as np

    n = len(trace)
    counts = np.diff(trace.dep_indptr)
    flat = trace.dep_data.astype(np.int64)
    starts = trace.dep_indptr[:-1]
    width = int(counts.max(initial=0))
    columns = np.zeros((width, n), dtype=np.int64)
    for j in range(width):
        has = counts > j
        columns[j, has] = flat[starts[has] + j]
    return columns


def _window_criticality(deps, latency, window: int) -> float:
    """Mean critical path ``K(window)`` of the consecutive windows
    ``[s, s + window)``, ``s = 0, window, ...``, over prepared columns.
    Dependences reaching before a window are treated as satisfied,
    exactly as a window full of post-miss instructions would see them.

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
    starts = np.arange(0, max(n - window + 1, 1), window)
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
    ks = [_window_criticality(deps, latency, w) for w in windows]
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


def depends_on(trace: Trace, consumer: int, producer: int) -> bool:
    """True when ``consumer`` transitively depends on ``producer``
    through dependences that stay at or after ``producer``.

    Walks the dependence CSR of ``[producer, consumer]`` back from the
    consumer, pruned at the producer (nothing older can lead to it).
    """
    offsets, distances = trace.window_deps(producer, consumer + 1)
    frontier = [consumer]
    seen = set()
    while frontier:
        seq = frontier.pop()
        at = seq - producer
        for dist in distances[offsets[at]:offsets[at + 1]]:
            upstream = seq - dist
            if upstream == producer:
                return True
            if upstream > producer and upstream not in seen:
                seen.add(upstream)
                frontier.append(upstream)
    return False


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
    return backward_slice_latencies(
        trace, branch_seq, window_start, (latency_of,), satisfied
    )[0]


def backward_slice_latencies(
    trace: Trace,
    branch_seq: int,
    window_start: int,
    latency_fns: Sequence[LatencyFn],
    satisfied: Optional[Callable[[int], bool]] = None,
) -> List[int]:
    """:func:`backward_slice_latency` under each of ``latency_fns``.

    The slice does not depend on the latencies, so it is collected once
    and only its finish times are evaluated per function.
    """
    if not 0 <= window_start <= branch_seq < len(trace):
        raise ValueError(
            f"bad slice bounds [{window_start}, {branch_seq}] "
            f"for trace of {len(trace)}"
        )
    # Record ``seq``'s distances are distances[offsets[at]:offsets[at + 1]]
    # with ``at = seq - window_start``.
    offsets, distances = trace.window_deps(window_start, branch_seq + 1)

    # Collect the backward slice by walking dependences from the branch,
    # keeping each member's producers that are members too: every
    # in-window producer not yet satisfied joins the slice.
    members = {branch_seq}
    inside = {}
    stack = [branch_seq]
    while stack:
        seq = stack.pop()
        at = seq - window_start
        kept = []
        for dist in distances[offsets[at]:offsets[at + 1]]:
            producer = seq - dist
            if producer >= window_start and (
                satisfied is None or not satisfied(producer)
            ):
                kept.append(producer)
                if producer not in members:
                    members.add(producer)
                    stack.append(producer)
        inside[seq] = kept
    # Evaluate finish times in program order over the slice.
    order = sorted(inside)
    depths = []
    for latency_of in latency_fns:
        finish = {}
        for seq in order:
            begin = 0
            for producer in inside[seq]:
                begin = max(begin, finish[producer])
            finish[seq] = begin + latency_of(seq)
        depths.append(finish[branch_seq])
    return depths
