"""Record-walking reference for the counterfactual transforms.

:mod:`repro.trace.transforms` edits one column of a copy of the trace's
structured array. This module keeps the transforms it replaced, which
rebuild every record with the annotation replaced and pack the result.
Differential tests require the two to give the same columns, CSR and
name.
"""

from __future__ import annotations

from typing import Callable

from repro.trace.record import TraceRecord
from repro.trace.stream import Trace


def _rebuild(
    trace: Trace,
    name_suffix: str,
    transform: Callable[[TraceRecord], TraceRecord],
) -> Trace:
    records = [transform(record) for record in trace.records]
    return Trace(records, name=f"{trace.name}{name_suffix}")


def _with_flags(record: TraceRecord, **overrides) -> TraceRecord:
    """Copy a record with some annotation fields replaced."""
    fields = dict(
        op_class=record.op_class,
        pc=record.pc,
        deps=record.deps,
        mem_addr=record.mem_addr,
        taken=record.taken,
        target=record.target,
        mispredict=record.mispredict,
        il1_miss=record.il1_miss,
        dl1_miss=record.dl1_miss,
        dl2_miss=record.dl2_miss,
    )
    fields.update(overrides)
    return TraceRecord(**fields)


def with_perfect_branches(trace: Trace) -> Trace:
    return _rebuild(
        trace,
        "+perfect-bp",
        lambda r: _with_flags(r, mispredict=False) if r.is_control else r,
    )


def with_perfect_icache(trace: Trace) -> Trace:
    return _rebuild(
        trace,
        "+perfect-il1",
        lambda r: _with_flags(r, il1_miss=False) if r.il1_miss else r,
    )


def without_short_misses(trace: Trace) -> Trace:
    return _rebuild(
        trace,
        "-short",
        lambda r: (
            _with_flags(r, dl1_miss=False) if (r.is_load and r.dl1_miss) else r
        ),
    )
