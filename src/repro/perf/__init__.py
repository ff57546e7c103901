"""repro.perf: the columnar trace engine and vectorized fast paths.

Every figure in the reproduction walks dynamic traces; the rest of the
library stores them as lists of :class:`~repro.trace.record.TraceRecord`
objects and pays Python-interpreter overhead per instruction. This
package is the performance layer on top of that representation:

* :mod:`repro.perf.packed` — :class:`PackedTrace`, a lossless columnar
  (NumPy structured array + CSR dependence) form of a trace;
* :mod:`repro.perf.cache` — a content-addressed compiled-trace cache so
  synthetic generation + packing happens once per (profile, seed,
  length), keyed with the lab store's hashing;
* :mod:`repro.perf.kernels` — vectorized
  :class:`~repro.trace.stream.TraceStatistics` and counter-table scans
  over the packed columns;
* :mod:`repro.perf.replay` — whole-branch-column predictor replay for
  the bimodal/gshare/local predictors, bit-identical to the scalar
  predictor classes;
* :mod:`repro.perf.fast` — :class:`VectorizedIntervalSimulator`, a
  column-oriented rewrite of interval simulation producing exactly the
  same :class:`~repro.interval.fast_sim.FastEstimate`;
* :mod:`repro.perf.annotate_fast` — the packed-array oracle-annotation
  fast path the detailed core reads on its hot path;
* :mod:`repro.perf.batchcore` — the batched structure-of-arrays
  detailed core: lockstep multi-config simulation over shared trace
  columns, bit-exact against the scalar
  :class:`~repro.pipeline.core.SuperscalarCore` oracle;
* :mod:`repro.perf.bench` — the ``repro bench`` throughput harness and
  the ``BENCH_simulator.json`` regression baseline format.

The lint rule PERF001 polices this package: vectorized modules must
stay vectorized — no per-record Python loops over ``trace.records``
outside the explicitly marked pack/unpack boundary.
"""

from repro.perf.batchcore import (
    BatchedSuperscalarCore,
    TraceColumns,
    batch_supported,
    run_batch,
)
from repro.perf.cache import PackedTraceCache, packed_trace_for
from repro.perf.fast import VectorizedIntervalSimulator
from repro.perf.kernels import packed_statistics
from repro.perf.packed import PackedTrace
from repro.perf.replay import ReplayResult, replay

__all__ = [
    "BatchedSuperscalarCore",
    "PackedTrace",
    "PackedTraceCache",
    "ReplayResult",
    "TraceColumns",
    "VectorizedIntervalSimulator",
    "batch_supported",
    "packed_statistics",
    "packed_trace_for",
    "replay",
    "run_batch",
]
