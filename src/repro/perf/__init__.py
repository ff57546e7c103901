"""repro.perf: the batched detailed core and the throughput harness.

Every figure in the reproduction walks dynamic traces, held as columns
(:mod:`repro.trace.columns`) from generation through the trace file,
so no path pays Python-interpreter overhead for an object per
instruction. This package holds what runs on those columns:

* :mod:`repro.perf.batchcore` — the batched structure-of-arrays
  detailed core that runs every out-of-order configuration: one loop
  runs the configs of a call over shared trace columns, and the kernel
  builds each run's :class:`~repro.pipeline.result.SimulationResult`,
  bit-exact against the scalar oracle core kept under
  ``tests/pipeline/``;
* :mod:`repro.perf.bench` — the ``repro bench`` throughput harness and
  the ``BENCH_simulator.json`` regression baseline format.
"""

from repro.perf.batchcore import TraceColumns, run_batch

__all__ = [
    "TraceColumns",
    "run_batch",
]
