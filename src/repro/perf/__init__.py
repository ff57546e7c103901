"""repro.perf: the columnar trace engine and the batched detailed core.

Every figure in the reproduction walks dynamic traces; the rest of the
library stores them as lists of :class:`~repro.trace.record.TraceRecord`
objects and pays Python-interpreter overhead per instruction. This
package is the performance layer on top of that representation:

* :mod:`repro.perf.packed` — :class:`PackedTrace`, a lossless columnar
  (NumPy structured array + CSR dependence) form of a trace;
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
from repro.perf.packed import PackedTrace

__all__ = [
    "BatchedSuperscalarCore",
    "PackedTrace",
    "TraceColumns",
    "batch_supported",
    "run_batch",
]
