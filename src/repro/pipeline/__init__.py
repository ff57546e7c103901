"""Out-of-order superscalar timing simulator.

:func:`simulate` runs a dependence-driven, cycle-accurate model of the
machine the paper characterizes: a configurable frontend pipeline
(fetch through dispatch), a unified issue window/ROB, width-limited
dispatch/issue/commit, functional-unit pools with per-class latencies,
and a memory hierarchy reached by loads and stores (see
:mod:`repro.pipeline.core`). :func:`simulate_inorder` runs the
scoreboarded in-order contrast core.

Miss events — branch mispredictions, I-cache misses and long D-cache
misses — are logged with full timing (dispatch cycle, resolve cycle,
window occupancy) so that :mod:`repro.interval` can segment execution
into inter-miss intervals and decompose every branch misprediction
penalty.

Both cores read a run's miss outcomes as one
:class:`~repro.pipeline.annotate.MissColumns` set: by default the miss
flags carried by synthetic traces, priced at the config's latencies; with
a :class:`StructuralAnnotator`, the outcomes of one program-order pass
through the branch-predictor and cache substrates.
"""

from repro.pipeline.config import CoreConfig, FUSpec, DEFAULT_FU_SPECS
from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
    MissEvent,
    MissEventKind,
)
from repro.pipeline.annotate import StructuralAnnotator
from repro.pipeline.result import SimulationResult
from repro.pipeline.core import simulate
from repro.pipeline.inorder import InOrderCore, simulate_inorder

__all__ = [
    "CoreConfig",
    "FUSpec",
    "DEFAULT_FU_SPECS",
    "MissEvent",
    "MissEventKind",
    "BranchMispredictEvent",
    "ICacheMissEvent",
    "LongDMissEvent",
    "StructuralAnnotator",
    "SimulationResult",
    "simulate",
    "InOrderCore",
    "simulate_inorder",
]
