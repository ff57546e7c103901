"""Interval analysis — the paper's primary contribution.

Interval analysis models superscalar execution as a sequence of
*inter-miss intervals*: stretches of dynamic instructions delimited by
miss events (branch mispredictions, I-cache misses, long D-cache
misses). Between events the processor sustains its dispatch width;
each event charges a penalty whose structure this package measures,
models, and decomposes.

Modules
-------
``segmentation``
    Cuts a simulation's event log into intervals and computes the
    instructions-since-last-miss-event statistics (burstiness, C2).
``penalty``
    Measures each branch misprediction's penalty and splits it into
    resolution time + frontend refill; aggregates per workload and per
    interval-length bucket.
``ilp``
    The window-drain ILP model: per-window critical-path profiles
    K(w) = alpha * w^beta, fitted from the trace's dependence graph
    (C3), plus backward-slice critical paths of individual branches.
``contributors``
    Quantifies the paper's five contributors per misprediction by
    evaluating the branch's backward slice under incremental latency
    models (unit -> FU -> FU+short-miss) plus the refill.
``model``
    The interval estimator: one walk over the miss events with two
    drain rules. ``predict`` is the first-order CPI model over the ILP
    fit, validated against simulation (T3); ``estimate`` is interval
    *simulation*, the one-pass analytical simulator this paper's
    analysis later grew into (the Sniper lineage), charging each
    misprediction its backward slice at a several-fold speedup over
    the cycle core (F16).
``cpi_stack``
    Interval-style CPI stacks (base / bpred / I-cache / long D-cache).
"""

from repro.interval.segmentation import (
    Interval,
    IntervalBreakdown,
    segment_intervals,
)
from repro.interval.penalty import (
    PenaltyDecomposition,
    PenaltyReport,
    bucket_resolution_by_gap,
    measure_penalties,
)
from repro.interval.ilp import (
    ILPFit,
    backward_slice_latency,
    fit_ilp_profile,
)
from repro.interval.contributors import (
    ContributorBreakdown,
    decompose_contributors,
)
from repro.interval.model import (
    IntervalModel,
    ModelPrediction,
    compare_with_detailed,
)
from repro.interval.cpi_stack import CPIStack, build_cpi_stack
from repro.interval.visualize import (
    TimelinePoint,
    interval_timeline,
    pick_illustrative_event,
)
from repro.interval.occupancy import (
    occupancy_at_dispatch,
    occupancy_trace,
)

__all__ = [
    "Interval",
    "IntervalBreakdown",
    "segment_intervals",
    "PenaltyDecomposition",
    "PenaltyReport",
    "measure_penalties",
    "bucket_resolution_by_gap",
    "ILPFit",
    "fit_ilp_profile",
    "backward_slice_latency",
    "ContributorBreakdown",
    "decompose_contributors",
    "IntervalModel",
    "ModelPrediction",
    "compare_with_detailed",
    "CPIStack",
    "build_cpi_stack",
    "TimelinePoint",
    "interval_timeline",
    "pick_illustrative_event",
    "occupancy_at_dispatch",
    "occupancy_trace",
]
