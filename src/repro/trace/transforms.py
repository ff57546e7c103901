"""Trace transformations for counterfactual studies.

Interval analysis invites "what if" questions — what if branches were
perfectly predicted? what if the L1 never missed short? These helpers
derive modified traces without regenerating them, so the counterfactual
shares every other event placement with the original (paired
comparison, no seed noise).

Each transform is one column edit on a copy of the trace's structured
array; the dependence CSR arrays are shared with the original, which is
safe because a trace's columns are never written after construction.
"""

from __future__ import annotations

from repro.trace.stream import Trace


def _edit(trace: Trace, name_suffix: str, field: str, rows) -> Trace:
    """A copy of ``trace`` whose ``field`` reads False (0) at ``rows``."""
    from repro.perf.packed import PackedTrace

    packed = trace.pack()
    columns = packed.columns.copy()
    columns[field][rows] = 0
    return Trace.from_columns(
        PackedTrace(
            columns,
            packed.dep_indptr,
            packed.dep_data,
            name=f"{trace.name}{name_suffix}",
        )
    )


def with_perfect_branches(trace: Trace) -> Trace:
    """All control flow predicted correctly; other events unchanged.

    Simulating this against the original isolates the total branch
    misprediction cost of the run (a paired counterfactual).
    """
    from repro.perf.packed import BRANCH_CODE, JUMP_CODE

    op = trace.pack().op
    return _edit(
        trace,
        "+perfect-bp",
        "mispredict",
        (op == BRANCH_CODE) | (op == JUMP_CODE),
    )


def with_perfect_icache(trace: Trace) -> Trace:
    """No I-cache misses."""
    return _edit(trace, "+perfect-il1", "il1_miss", trace.pack().il1_miss == 1)


def without_short_misses(trace: Trace) -> Trace:
    """Short (L1-miss/L2-hit) loads become hits; long misses stay.

    The direct counterfactual for contributor C5.
    """
    from repro.perf.packed import LOAD_CODE

    packed = trace.pack()
    return _edit(
        trace,
        "-short",
        "dl1_miss",
        (packed.op == LOAD_CODE) & (packed.dl1_miss == 1),
    )
