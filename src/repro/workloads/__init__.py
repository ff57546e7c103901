"""Workloads: SPEC-CPU2000-like statistical profiles and real kernels.

``spec_profiles`` defines twelve synthetic workload profiles whose
statistics (instruction mix, ILP, branch misprediction rates, cache
miss rates, burstiness) are set to ballpark published SPEC CPU2000
integer behaviour — the trace substitution documented in DESIGN.md.

``kernels`` provides assembled microbenchmark programs (dot product,
pointer chase, branchy search, ...) whose *real* dynamic traces, via
the functional simulator, cross-check the synthetic methodology.
"""

from repro.workloads.spec_profiles import (
    ALL_PROFILES,
    SPEC_FP_PROFILES,
    SPEC_PROFILES,
    spec_fp_names,
    spec_names,
    spec_profile,
)
from repro.workloads.kernels import (
    KERNEL_BUILDERS,
    build_kernel,
    kernel_names,
    kernel_trace,
)

__all__ = [
    "SPEC_PROFILES",
    "SPEC_FP_PROFILES",
    "ALL_PROFILES",
    "spec_profile",
    "spec_names",
    "spec_fp_names",
    "KERNEL_BUILDERS",
    "build_kernel",
    "kernel_names",
    "kernel_trace",
]
