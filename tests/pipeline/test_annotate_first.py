"""Structural runs annotate the trace first and run on the kernel.

The premise: a detailed core asks its annotator exactly once per
record, in program order, whatever the timing (wrong-path ghosts never
ask), so an annotator's outcomes depend on program order only and one
program-order pass ahead of the run
(``StructuralAnnotator.miss_columns``) sees what the core would. The
F17 predictors and the F18 hierarchies then give results, and leave
predictor, cache and prefetcher state, equal to the scalar core's,
which asks the record-level annotator of
:mod:`tests.pipeline.record_annotate` once per dispatched record.
"""

from __future__ import annotations

import pytest

from repro.frontend.base import BranchUnit
from repro.frontend.bimodal import BimodalPredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.gshare import GSharePredictor
from repro.frontend.static import StaticPredictor
from repro.frontend.tage import TAGEPredictor
from repro.frontend.tournament import TournamentPredictor
from repro.memory.hierarchy import (
    CacheHierarchy,
    DataAccessOutcome,
    HierarchyConfig,
    MissClass,
)
from repro.memory.prefetch import PrefetchingHierarchyAdapter, StridePrefetcher
from repro.obs import runtime
from repro.perf import batchcore
from repro.perf.batchcore import _run_cores
from repro.pipeline.annotate import StructuralAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.synthetic import generate_trace
from repro.util.rng import derive_seed
from repro.workloads.kernels import kernel_trace, stride_sum
from repro.workloads.spec_profiles import SPEC_PROFILES

from tests.pipeline.record_annotate import (
    Annotator,
    OracleAnnotator,
    RecordStructuralAnnotator,
)
from tests.pipeline.scalar_core import SuperscalarCore
from tests.trace.records import records_of

CONFIG = CoreConfig()

PREDICTORS = {
    "static-taken": lambda: StaticPredictor(predict_taken=True),
    "bimodal": BimodalPredictor,
    "gshare": GSharePredictor,
    "tournament": TournamentPredictor,
    "tage": TAGEPredictor,
}


pytestmark = pytest.mark.usefixtures("kernel_path")


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = batchcore._simulate_columns

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(batchcore, "_simulate_columns", counting)
    return calls


class Recording(Annotator):
    """Delegates to ``inner`` and records which record it was asked."""

    def __init__(self, inner, records):
        self.inner = inner
        self.index = {id(record): seq for seq, record in enumerate(records)}
        self.seen = []

    def annotate(self, record):
        self.seen.append(self.index[id(record)])
        return self.inner.annotate(record)


def _cache_stats(hierarchy):
    return [vars(c.stats) for c in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)]


def _structural(make_direction, hierarchy, kind=StructuralAnnotator):
    """A structural annotator: the column pass by default, or
    ``RecordStructuralAnnotator`` for the scalar oracle cores."""
    return kind(
        BranchUnit(direction=make_direction(), btb=BranchTargetBuffer()),
        hierarchy,
    )


def _zero_stall():
    """A structural annotator whose I-side misses in zero cycles."""
    hierarchy = CacheHierarchy(HierarchyConfig())
    hierarchy.access_instruction = lambda pc: DataAccessOutcome(
        MissClass.SHORT, 0
    )
    return _structural(GSharePredictor, hierarchy)


@pytest.mark.parametrize(
    "config",
    [
        CoreConfig(),
        CoreConfig(dispatch_wrong_path=True),
        CoreConfig(issue_policy="random", seed=2),
        CoreConfig(rob_size=16, dispatch_width=8, issue_width=1),
    ],
    ids=["baseline", "wrong-path", "random-issue", "narrow"],
)
def test_scalar_core_asks_each_record_once_in_program_order(config):
    """The premise of annotate-first, pinned on the scalar core."""
    trace = generate_trace(
        SPEC_PROFILES["gcc"], 2_000, seed=derive_seed(2006, "gcc")
    )
    records = records_of(trace)
    oracle = Recording(OracleAnnotator(config), records)
    result = SuperscalarCore(config).run(trace, annotator=oracle)
    assert result.icache_events and result.mispredict_events
    assert oracle.seen == list(range(len(records)))

    kernel = kernel_trace("branchy_search")
    structural = Recording(
        _structural(
            GSharePredictor,
            CacheHierarchy(HierarchyConfig()),
            RecordStructuralAnnotator,
        ),
        records_of(kernel),
    )
    SuperscalarCore(config).run(kernel, annotator=structural)
    assert structural.seen == list(range(len(kernel)))


@pytest.mark.parametrize("name", sorted(PREDICTORS))
def test_f17_predictors_match_the_scalar_core(name, kernel_calls):
    trace = kernel_trace("branchy_search")
    runs = []
    for run, kind in (
        (lambda a: simulate(trace, CONFIG, annotator=a), StructuralAnnotator),
        (
            lambda a: SuperscalarCore(CONFIG).run(trace, annotator=a),
            RecordStructuralAnnotator,
        ),
    ):
        hierarchy = CacheHierarchy(HierarchyConfig())
        annotator = _structural(PREDICTORS[name], hierarchy, kind)
        result = run(annotator)
        unit = annotator.branch_unit
        runs.append(
            (
                vars(result),
                vars(unit.stats),
                vars(unit.direction.stats),
                _cache_stats(hierarchy),
            )
        )
    assert kernel_calls == [1]
    assert runs[0] == runs[1]
    assert runs[0][0]["events"]


@pytest.mark.parametrize("prefetch", [False, True], ids=["plain", "stride"])
def test_f18_hierarchies_match_the_scalar_core(prefetch, kernel_calls):
    trace = stride_sum(elements=6_144, stride=1).run()
    runs = []
    for run, kind in (
        (lambda a: simulate(trace, CONFIG, annotator=a), StructuralAnnotator),
        (
            lambda a: SuperscalarCore(CONFIG).run(trace, annotator=a),
            RecordStructuralAnnotator,
        ),
    ):
        hierarchy = CacheHierarchy(HierarchyConfig())
        memory_system, prefetcher = hierarchy, None
        if prefetch:
            prefetcher = StridePrefetcher(hierarchy.l1d, degree=4)
            memory_system = PrefetchingHierarchyAdapter(
                hierarchy, data_prefetcher=prefetcher
            )
        result = run(_structural(TournamentPredictor, memory_system, kind))
        runs.append(
            (
                vars(result),
                _cache_stats(hierarchy),
                (hierarchy.memory.reads, hierarchy.memory.writes),
                vars(prefetcher.stats) if prefetcher else None,
            )
        )
    assert kernel_calls == [1]
    assert runs[0] == runs[1]
    assert runs[0][0]["events"]
    if prefetch:
        assert runs[0][3]["issued"] > 0


def test_one_annotator_runs_each_config_in_turn(kernel_calls):
    """A shared stateful annotator carries its state from config to config."""
    trace = kernel_trace("branchy_search")
    configs = [CoreConfig(), CoreConfig(rob_size=32, dispatch_wrong_path=True)]
    shared = _structural(BimodalPredictor, CacheHierarchy(HierarchyConfig()))
    batched = _run_cores(trace, configs, annotator=shared)
    reference = _structural(
        BimodalPredictor,
        CacheHierarchy(HierarchyConfig()),
        RecordStructuralAnnotator,
    )
    scalar = [
        SuperscalarCore(c).run(trace, annotator=reference) for c in configs
    ]
    assert kernel_calls == [1, 1]
    assert [vars(r) for r in batched] == [vars(r) for r in scalar]


def test_annotation_pass_counts_substrate_metrics_as_before():
    """``memory.*``/``frontend.*`` counters: the values the per-dispatch
    lookups of the scalar path recorded, with the registry now resolved
    once per pass."""

    def counters(trace, prefetch):
        hierarchy = CacheHierarchy(HierarchyConfig())
        memory_system = hierarchy
        if prefetch:
            prefetcher = StridePrefetcher(hierarchy.l1d, degree=4)
            memory_system = PrefetchingHierarchyAdapter(
                hierarchy, data_prefetcher=prefetcher
            )
        annotator = _structural(GSharePredictor, memory_system)
        runtime.reset()
        runtime.enable_metrics()
        try:
            simulate(trace, CONFIG, annotator=annotator)
            snapshot = runtime.drain_metrics()
        finally:
            runtime.reset()
        return {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith(("memory.", "frontend."))
        }

    assert counters(kernel_trace("branchy_search"), prefetch=False) == {
        "frontend.mispredicts_total": 259,
        "frontend.predictions_total": 1024,
        "memory.accesses_total": 513,
        "memory.l1_hits_total": 448,
        "memory.long_misses_total": 65,
    }
    stream = stride_sum(elements=2_048, stride=1).run()
    assert counters(stream, prefetch=True) == {
        "frontend.mispredicts_total": 2,
        "frontend.predictions_total": 2048,
        "memory.accesses_total": 2049,
        "memory.l1_hits_total": 2047,
        "memory.long_misses_total": 2,
    }


def test_annotation_pass_resolves_the_registry_once(monkeypatch):
    trace = kernel_trace("branchy_search")
    annotator = _structural(GSharePredictor, CacheHierarchy(HierarchyConfig()))
    lookups = []
    enabled = runtime._enabled

    def counting(pillar):
        lookups.append(pillar)
        return enabled(pillar)

    monkeypatch.setattr(runtime, "_enabled", counting)
    columns = annotator.miss_columns(trace)
    assert len(columns.misp) == len(trace)
    assert annotator.branch_unit.stats.predictions > 0
    assert lookups == ["metrics"]


def test_a_zero_cycle_icache_miss_is_rejected():
    trace = kernel_trace("branchy_search")
    with pytest.raises(ValueError, match="at least one"):
        _zero_stall().miss_columns(trace)
