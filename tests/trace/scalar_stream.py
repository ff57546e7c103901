"""Record-walk reference for the columnar trace queries.

``Trace`` answers its queries (statistics, dataflow critical path,
validation) as folds over its columns; this module keeps
the per-record walks they replaced. Differential tests require the two
to agree exactly, so the walks read nothing but ``records_of(trace)``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.trace.stream import Trace, TraceStatistics
from repro.util.stats import Histogram
from tests.trace.records import records_of


def scalar_statistics(trace: Trace) -> TraceStatistics:
    mix_counts: Dict[str, int] = {}
    branch_count = 0
    taken_count = 0
    mispredict_count = 0
    il1_count = 0
    load_count = 0
    dl1_count = 0
    dl2_count = 0
    dep_hist = Histogram()
    for record in records_of(trace):
        key = record.op_class.value
        mix_counts[key] = mix_counts.get(key, 0) + 1
        for dist in record.deps:
            dep_hist.add(dist)
        if record.is_branch:
            branch_count += 1
            taken_count += int(record.taken)
            mispredict_count += int(bool(record.mispredict))
        if record.il1_miss:
            il1_count += 1
        if record.is_load:
            load_count += 1
            dl1_count += int(bool(record.dl1_miss))
            dl2_count += int(bool(record.dl2_miss))
    n = len(records_of(trace))
    per_ki = 1000.0 / n if n else 0.0
    return TraceStatistics(
        instruction_count=n,
        mix={k: v / n for k, v in mix_counts.items()} if n else {},
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


def scalar_validate(trace: Trace) -> None:
    for i, record in enumerate(records_of(trace)):
        if any(d < 1 for d in record.deps):
            raise ValueError(f"record {i}: non-positive dependence distance")
        if record.is_memory and record.mem_addr is None:
            raise ValueError(f"record {i}: memory op without address")


def scalar_critical_path_length(trace: Trace, latency_of=None) -> int:
    if latency_of is None:
        latency_of = lambda op_class: 1  # noqa: E731 - tiny default
    finish: List[int] = []
    longest = 0
    for i, record in enumerate(records_of(trace)):
        start = 0
        for dist in record.deps:
            producer = i - dist
            if producer >= 0:
                start = max(start, finish[producer])
        done = start + latency_of(record.op_class)
        finish.append(done)
        longest = max(longest, done)
    return longest
