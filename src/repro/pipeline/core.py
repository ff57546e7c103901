"""The out-of-order superscalar machine and its one entry.

The model is dependence-driven and cycle-accurate at the granularity
interval analysis needs:

* **Dispatch** — up to ``dispatch_width`` instructions per cycle enter
  the unified window/ROB, gated by ROB space, the frontend-ready cycle
  (redirects and I-cache misses push it out), and — after a mispredicted
  control instruction — the resolve-and-refill sequence.
* **Issue** — an instruction issues once all producers have known
  completion times that have passed, subject to ``issue_width`` and
  functional-unit availability; selection is oldest-first.
* **Execute** — latency comes from the op class's FU spec; loads add
  the data-cache latency of their miss class (hit / short / long).
* **Commit** — in order, up to ``commit_width`` per cycle.

Branch mispredictions stop dispatch at the branch; when the branch
executes, the frontend refills for ``frontend_depth`` cycles and the
event log records the resolution time and the window occupancy — the
exact quantities the paper's penalty decomposition is built from. The
optional wrong-path mode instead keeps dispatching ghost instructions
that occupy window and issue slots until the flush.

Idle cycles (e.g. during a long memory stall) are skipped, so simulated
time is O(events), not O(cycles).

One core runs this model: the structure-of-arrays kernel of
:mod:`repro.perf.batchcore`. Wrong-path ghosts and random issue are
kernel modes, a structural annotator makes its one program-order pass
over the trace first, and the ambient sanitizer's cycle-level checks
run inside the kernel's loop. :func:`simulate` and
:func:`repro.perf.batchcore.run_batch` reach it through
:func:`_run_cores`; the in-order core
(:mod:`repro.pipeline.inorder`) is the only other core. Neither core
reports to the tracer or the metrics while it runs: the finished
result does (:func:`repro.pipeline.result.observe_run`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.pipeline.annotate import StructuralAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.result import SimulationResult, observe_run
from repro.trace.stream import Trace


def _run_cores(
    trace: Trace,
    configs: Sequence[CoreConfig],
    annotator: Optional[StructuralAnnotator] = None,
    core: Optional[type] = None,
) -> List[SimulationResult]:
    """Run ``trace`` under each config; the one detailed-core entry.

    :func:`simulate`, :func:`repro.perf.batchcore.run_batch` and
    :func:`repro.pipeline.inorder.simulate_inorder` are thin names over
    this function, so none of them calls another. Without a ``core``,
    every config runs out of order on the SoA kernel
    (:class:`~repro.perf.batchcore.BatchedSuperscalarCore`), sanitized
    or not. The one other ``core`` is the in-order core
    (:class:`~repro.pipeline.inorder.InOrderCore`), which reads the
    same trace and miss columns as the kernel. Each result is then
    reported to the ambient tracer and metrics (:func:`observe_run`),
    once per config.
    """
    if core is None:
        from repro.perf.batchcore import BatchedSuperscalarCore

        results = BatchedSuperscalarCore(configs).run(trace, annotator)
    else:
        results = [
            core(config).run(trace, annotator=annotator) for config in configs
        ]
    for result in results:
        observe_run(result, out_of_order=core is None)
    return results


def simulate(
    trace: Trace,
    config: Optional[CoreConfig] = None,
    annotator: Optional[StructuralAnnotator] = None,
) -> SimulationResult:
    """Run ``trace`` under ``config`` (the baseline when None), on the
    SoA kernel (see :func:`_run_cores`)."""
    config = config if config is not None else CoreConfig()
    return _run_cores(trace, [config], annotator)[0]
