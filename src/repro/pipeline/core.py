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
run inside the kernel's loop. The kernel builds each
:class:`~repro.pipeline.result.SimulationResult` itself, and one loop
(:func:`repro.perf.batchcore._run_cores`) runs the configs: both
:func:`simulate` and :func:`repro.perf.batchcore.run_batch` call it.
The in-order core (:mod:`repro.pipeline.inorder`) is the only other
core. Neither core reports to the tracer or the metrics while it runs:
the finished result does (:func:`repro.pipeline.result.observe_run`),
once per config.
"""

from __future__ import annotations

from typing import Optional

from repro.pipeline.annotate import StructuralAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.result import SimulationResult
from repro.trace.stream import Trace


def simulate(
    trace: Trace,
    config: Optional[CoreConfig] = None,
    annotator: Optional[StructuralAnnotator] = None,
) -> SimulationResult:
    """Run ``trace`` under ``config`` (the baseline when None) on the
    SoA kernel, and report the run (see
    :func:`repro.perf.batchcore._run_cores`)."""
    # repro.perf sits above the pipeline layer, so the kernel is
    # imported at run time.
    from repro.perf.batchcore import _run_cores

    config = config if config is not None else CoreConfig()
    return _run_cores(trace, [config], annotator)[0]
