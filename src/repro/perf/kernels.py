"""Vectorized trace kernels over :class:`PackedTrace` columns.

:func:`packed_statistics` is the columnar rewrite of
:meth:`Trace.statistics`, producing a value-identical
:class:`~repro.trace.stream.TraceStatistics` (counts and ratios come
out of the same integer arithmetic, so even the floats match exactly).
:func:`counter_table_scan` replays tables of saturating counters over
whole columns.

Shared helpers used by the predictor replay and fast-sim modules —
per-record latency columns and the op-class lookup tables — also live
here so every kernel prices instructions identically.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

#: Below this many live groups, the lockstep counter scan switches to a
#: scalar tail — per-step NumPy dispatch would cost more than int math.
_MIN_ACTIVE = 64

from repro.pipeline.config import CoreConfig
from repro.perf.packed import (
    BRANCH_CODE,
    LOAD_CODE,
    OP_CLASSES,
    PackedTrace,
)
from repro.trace.stream import TraceStatistics
from repro.util.stats import Histogram


def op_class_table(fn, dtype=np.int64) -> np.ndarray:
    """Evaluate ``fn(op_class)`` once per class into a lookup array.

    The result is indexable by the packed ``op`` column, replacing a
    per-record callback with one gather.
    """
    return np.asarray([fn(cls) for cls in OP_CLASSES], dtype=dtype)


def steady_latency_column(
    packed: PackedTrace, config: CoreConfig
) -> np.ndarray:
    """Per-record steady-state latencies, one gather + one mask.

    Matches ``FastIntervalSimulator._steady_latency``: the op class's
    functional-unit latency, plus the L1 (hit) or L2 (short-miss)
    latency for loads.
    """
    fu = op_class_table(lambda cls: config.fu_specs[cls].latency)
    lat = fu[packed.op]
    is_load = packed.op == LOAD_CODE
    short = packed.dl1_miss == 1
    lat[is_load & short] += config.l2_latency
    lat[is_load & ~short] += config.l1_latency
    return lat


def packed_statistics(packed: PackedTrace) -> TraceStatistics:
    """Columnar :meth:`Trace.statistics`; value-identical to the scalar.

    All counts are integer reductions over columns; the derived ratios
    use the same expressions as the scalar implementation, so results
    compare equal (not merely close).
    """
    n = len(packed)
    op = packed.op
    class_counts = np.bincount(op, minlength=len(OP_CLASSES))
    mix = (
        {
            OP_CLASSES[i].value: int(class_counts[i]) / n
            for i in np.flatnonzero(class_counts)
        }
        if n
        else {}
    )

    is_branch = op == BRANCH_CODE
    branch_count = int(is_branch.sum())
    taken_count = int((packed.taken & is_branch).sum())
    mispredict_count = int(((packed.mispredict == 1) & is_branch).sum())
    il1_count = int((packed.il1_miss == 1).sum())
    is_load = op == LOAD_CODE
    load_count = int(is_load.sum())
    dl1_count = int(((packed.dl1_miss == 1) & is_load).sum())
    dl2_count = int(((packed.dl2_miss == 1) & is_load).sum())

    dep_hist = Histogram()
    if len(packed.dep_data):
        values, counts = np.unique(packed.dep_data, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            dep_hist.add(value, count)

    per_ki = 1000.0 / n if n else 0.0
    return TraceStatistics(
        instruction_count=n,
        mix=mix,
        branch_count=branch_count,
        taken_fraction=taken_count / branch_count if branch_count else 0.0,
        mispredict_count=mispredict_count,
        mispredictions_per_ki=mispredict_count * per_ki,
        il1_misses_per_ki=il1_count * per_ki,
        dl1_miss_rate=dl1_count / load_count if load_count else 0.0,
        dl2_miss_rate=dl2_count / load_count if load_count else 0.0,
        mean_dependence_distance=dep_hist.mean,
        dependence_histogram=dep_hist,
    )


def counter_table_scan(
    indices: np.ndarray,
    taken: np.ndarray,
    counter_bits: int = 2,
    initial: Optional[int] = None,
) -> np.ndarray:
    """Simulate a table of saturating counters over whole columns.

    ``indices[k]`` is the table entry consulted by the ``k``-th access
    (program order) and ``taken[k]`` the outcome it trains on. Returns
    the per-access predictions, bit-identical to updating one
    :class:`~repro.frontend.bimodal.SaturatingCounter` per entry
    sequentially.

    Accesses to *different* entries never interact, so the scan groups
    accesses by entry (stable sort) and advances all groups in
    lockstep: step ``t`` updates element ``t`` of every group still
    that long, each step one vector operation. Once fewer than
    ``_MIN_ACTIVE`` groups remain live (a few entries hog most
    accesses — typical for pattern tables), the lockstep tail would
    degenerate into per-element NumPy calls, so the survivors finish in
    a scalar integer loop instead. Total work stays O(n) plus one sort.
    """
    n = len(indices)
    predictions = np.empty(n, dtype=bool)
    if not n:
        return predictions
    if initial is None:
        initial = 1 << (counter_bits - 1)  # weakly taken
    maximum = (1 << counter_bits) - 1
    threshold = 1 << (counter_bits - 1)

    order = np.argsort(indices, kind="stable")
    sorted_taken = np.asarray(taken, dtype=bool)[order]
    sorted_idx = np.asarray(indices)[order]
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=is_start[1:])
    group_starts = np.flatnonzero(is_start)
    group_sizes = np.diff(np.append(group_starts, n))

    # Largest groups first: the active set at step t is then a prefix.
    by_size = np.argsort(-group_sizes, kind="stable")
    starts_desc = group_starts[by_size]
    sizes_desc = group_sizes[by_size]

    # Lockstep while at least _MIN_ACTIVE groups still have elements:
    # active(t) >= k  iff  the k-th largest group is longer than t.
    group_count = len(starts_desc)
    if group_count >= _MIN_ACTIVE:
        lockstep_steps = int(sizes_desc[_MIN_ACTIVE - 1])
    else:
        lockstep_steps = 0

    states = np.full(group_count, initial, dtype=np.int64)
    sorted_predictions = np.empty(n, dtype=bool)
    for step in range(lockstep_steps):
        active = int(np.searchsorted(-sizes_desc, -step, side="left"))
        slots = starts_desc[:active] + step
        outcome = sorted_taken[slots]
        state = states[:active]
        sorted_predictions[slots] = state >= threshold
        states[:active] = np.where(
            outcome,
            np.minimum(state + 1, maximum),
            np.maximum(state - 1, 0),
        )

    # Scalar tail for the few groups longer than the lockstep phase.
    tail_groups = int(
        np.searchsorted(-sizes_desc, -lockstep_steps, side="left")
    )
    if tail_groups:
        taken_list = sorted_taken.tolist()
        pred_tail: List[bool] = []
        slot_tail: List[int] = []
        for g in range(tail_groups):
            base = int(starts_desc[g])
            state = int(states[g])
            for slot in range(base + lockstep_steps, base + int(sizes_desc[g])):
                pred_tail.append(state >= threshold)
                if taken_list[slot]:
                    if state < maximum:
                        state += 1
                elif state > 0:
                    state -= 1
                slot_tail.append(slot)
        sorted_predictions[slot_tail] = pred_tail
    predictions[order] = sorted_predictions
    return predictions
