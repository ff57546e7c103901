"""repro — Characterizing the Branch Misprediction Penalty (ISPASS 2006).

A from-scratch reproduction of Eyerman, Smith & Eeckhout's interval
analysis of the branch misprediction penalty, including every substrate
the paper depends on: a kernel ISA with assembler and functional
simulator, synthetic SPEC-like trace generation, branch predictors, a
cache hierarchy, an out-of-order superscalar timing simulator, and the
interval-analysis layer that measures, models and decomposes the
penalty into its five contributors.

Quickstart
----------
>>> from repro import (
...     CoreConfig, simulate, generate_trace, spec_profile,
...     measure_penalties,
... )
>>> trace = generate_trace(spec_profile("twolf"), 20_000, seed=1)
>>> result = simulate(trace, CoreConfig())
>>> report = measure_penalties(result)
>>> report.mean_penalty > CoreConfig().frontend_depth
True
"""

from repro.isa import Instruction, Opcode, OpClass, Program, assemble
from repro.trace import (
    FunctionalSimulator,
    SyntheticTraceGenerator,
    Trace,
    WorkloadProfile,
    generate_trace,
    load_trace,
    save_trace,
)
from repro.frontend import (
    BimodalPredictor,
    BranchTargetBuffer,
    BranchUnit,
    GSharePredictor,
    LocalPredictor,
    PerceptronPredictor,
    PerfectPredictor,
    StaticPredictor,
    TAGEPredictor,
    TournamentPredictor,
)
from repro.memory import Cache, CacheHierarchy, HierarchyConfig, MainMemory, MissClass
from repro.pipeline import (
    CoreConfig,
    FUSpec,
    InOrderCore,
    SimulationResult,
    StructuralAnnotator,
    simulate,
    simulate_inorder,
)
from repro.interval import (
    CPIStack,
    ContributorBreakdown,
    ILPFit,
    IntervalModel,
    PenaltyReport,
    build_cpi_stack,
    decompose_contributors,
    fit_ilp_profile,
    measure_penalties,
    segment_intervals,
)
from repro.workloads import (
    SPEC_PROFILES,
    build_kernel,
    kernel_names,
    kernel_trace,
    spec_profile,
)

__version__ = "1.0.0"

__all__ = [
    # isa
    "Instruction",
    "Opcode",
    "OpClass",
    "Program",
    "assemble",
    # trace
    "FunctionalSimulator",
    "SyntheticTraceGenerator",
    "Trace",
    "WorkloadProfile",
    "generate_trace",
    "load_trace",
    "save_trace",
    # frontend
    "BimodalPredictor",
    "BranchTargetBuffer",
    "BranchUnit",
    "GSharePredictor",
    "LocalPredictor",
    "PerceptronPredictor",
    "PerfectPredictor",
    "StaticPredictor",
    "TAGEPredictor",
    "TournamentPredictor",
    # memory
    "Cache",
    "CacheHierarchy",
    "HierarchyConfig",
    "MainMemory",
    "MissClass",
    # pipeline
    "CoreConfig",
    "FUSpec",
    "InOrderCore",
    "SimulationResult",
    "StructuralAnnotator",
    "simulate",
    "simulate_inorder",
    # interval analysis
    "CPIStack",
    "ContributorBreakdown",
    "ILPFit",
    "IntervalModel",
    "PenaltyReport",
    "build_cpi_stack",
    "decompose_contributors",
    "fit_ilp_profile",
    "measure_penalties",
    "segment_intervals",
    # workloads
    "SPEC_PROFILES",
    "build_kernel",
    "kernel_names",
    "kernel_trace",
    "spec_profile",
]
