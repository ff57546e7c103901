"""repro.analysis — static analysis and runtime sanitizing.

Two guards for the paper's methodology:

- the lint engine: one registry of AST and whole-program rules
  (:mod:`repro.analysis.engine`), the per-file pack
  (:mod:`repro.analysis.rules`) and the interprocedural pack
  (:mod:`repro.analysis.iprules`: asyncio races, blocking-call and
  atomic-write reachability, determinism taint), run by
  :func:`repro.analysis.program.analyze_paths` over call graphs and
  await-annotated control flow (:mod:`repro.analysis.callgraph`,
  :mod:`repro.analysis.cfg`), with content-addressed per-file caching,
  SARIF export and a checked-in violation baseline so CI fails only on
  *new* findings. ``repro lint`` imports it; nothing on a simulation
  path does.
- :mod:`repro.analysis.sanitizer` — a runtime invariant sanitizer
  (``REPRO_SANITIZE=1`` or ``--sanitize``) that checks ROB occupancy
  bounds, commit monotonicity, per-instruction stage ordering, and the
  CPI-stack accounting identity during real runs, collecting
  violations into structured reports the lab records in its manifests.
"""

from repro.analysis.sanitizer import (
    InvariantViolation,
    Sanitizer,
    SanitizerReport,
)

__all__ = [
    "InvariantViolation",
    "Sanitizer",
    "SanitizerReport",
]
