"""repro.perf: the columnar trace engine and the batched detailed core.

Every figure in the reproduction walks dynamic traces. A trace is
held as columns, from generation through the trace file, so no path
pays Python-interpreter overhead for an object per instruction. This
package holds that column store and what runs on it:

* :mod:`repro.perf.packed` — :class:`PackedTrace`, the columnar (NumPy
  structured array + CSR dependence) form of a trace, and the column
  folds behind ``Trace``'s queries;
* :mod:`repro.perf.batchcore` — the batched structure-of-arrays
  detailed core that runs every out-of-order configuration: lockstep
  multi-config simulation over shared trace columns, bit-exact against
  the scalar oracle core kept under ``tests/pipeline/``;
* :mod:`repro.perf.bench` — the ``repro bench`` throughput harness and
  the ``BENCH_simulator.json`` regression baseline format.
"""

from repro.perf.batchcore import (
    BatchedSuperscalarCore,
    TraceColumns,
    run_batch,
)
from repro.perf.packed import PackedTrace

__all__ = [
    "BatchedSuperscalarCore",
    "PackedTrace",
    "TraceColumns",
    "run_batch",
]
