"""Dynamic instruction traces.

A :class:`~repro.trace.record.TraceRecord` is one dynamic instruction:
its operation class, program counter, *dynamic dependence distances*
(how many instructions back each of its producers executed), memory
address for loads/stores, and control-flow outcome for branches.

Records may additionally carry *annotations* — pre-resolved miss flags
(``mispredict``, ``il1_miss``, ``dl1_miss``, ``dl2_miss``). Annotated
traces let the synthetic workload generator place miss events with
statistical control, exactly as interval analysis requires; structural
runs instead derive those events from the branch predictor and cache
substrates.

Two trace producers are provided:

* :mod:`repro.trace.functional` executes an assembled
  :class:`~repro.isa.program.Program` and emits the real dynamic stream;
* :mod:`repro.trace.synthetic` generates a statistical stream from a
  :class:`~repro.trace.profiles.WorkloadProfile`.
"""

from repro.trace.record import TraceRecord
from repro.trace.stream import Trace, TraceStatistics
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import SyntheticTraceGenerator, generate_trace
from repro.trace.functional import FunctionalSimulator, ExecutionLimitExceeded
from repro.trace.io import load_trace, save_trace
from repro.trace.transforms import (
    with_perfect_branches,
    with_perfect_icache,
    without_short_misses,
)

__all__ = [
    "TraceRecord",
    "Trace",
    "TraceStatistics",
    "WorkloadProfile",
    "SyntheticTraceGenerator",
    "generate_trace",
    "FunctionalSimulator",
    "ExecutionLimitExceeded",
    "load_trace",
    "save_trace",
    "with_perfect_branches",
    "with_perfect_icache",
    "without_short_misses",
]
