"""The column in-order core against the record-walking oracle.

``InOrderCore`` runs its scoreboard recurrence over the trace's packed
columns, one miss-column set and the per-op-code FU tables;
``scalar_inorder.ScalarInOrderCore`` asks an annotator per record and
reserves units through heaps. Every test compares complete
:class:`SimulationResult` objects, events and timelines included, and
the order of ``fu_issue_counts`` (the store encodes the dict in order).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer
from repro.frontend.tournament import TournamentPredictor
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.memory.prefetch import PrefetchingHierarchyAdapter, StridePrefetcher
from repro.pipeline.annotate import StructuralAnnotator
from repro.pipeline.config import DEFAULT_FU_SPECS, CoreConfig, FUSpec
from repro.pipeline.inorder import InOrderCore
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from repro.util.rng import derive_seed
from repro.workloads.kernels import kernel_trace, stride_sum
from repro.workloads.spec_profiles import SPEC_PROFILES

from tests.pipeline.record_annotate import RecordStructuralAnnotator
from tests.pipeline.scalar_inorder import ScalarInOrderCore
from tests.pipeline.test_annotate_first import (
    PREDICTORS,
    _cache_stats,
    _structural,
    _zero_stall,
)
from tests.trace.records import TraceRecord, trace_of

#: Each core with the annotator it asks: the column pass for the
#: column core, the record walk for the scalar oracle.
CORES = (
    (InOrderCore, StructuralAnnotator),
    (ScalarInOrderCore, RecordStructuralAnnotator),
)

pytestmark = pytest.mark.usefixtures("kernel_path")


def suite_trace(name, length=2_000):
    return generate_trace(
        SPEC_PROFILES[name], length, seed=derive_seed(2006, name)
    )


def assert_matches_oracle(trace, config, context=""):
    got = InOrderCore(config).run(trace)
    want = ScalarInOrderCore(config).run(trace)
    assert vars(got) == vars(want), context
    assert list(got.fu_issue_counts) == list(want.fu_issue_counts), context
    return got


def _width(width, **overrides):
    return CoreConfig(
        dispatch_width=width, issue_width=width, commit_width=width, **overrides
    )


# One IDIV unit that blocks for its whole latency, and an unpipelined
# pair of load units: both bind on a divide- and load-heavy mix.
BINDING_FUS = {
    **DEFAULT_FU_SPECS,
    OpClass.IDIV: FUSpec(count=1, latency=20, issue_interval=20),
    OpClass.LOAD: FUSpec(count=2, latency=3, issue_interval=3),
}
DIVIDE_HEAVY = WorkloadProfile(
    name="divide-heavy",
    mix={
        OpClass.IALU: 0.35,
        OpClass.IDIV: 0.15,
        OpClass.LOAD: 0.30,
        OpClass.STORE: 0.05,
        OpClass.BRANCH: 0.15,
    },
    mispredict_rate=0.08,
    il1_mpki=3.0,
    dl1_miss_rate=0.1,
    dl2_miss_rate=0.03,
)

CONFIGS = {
    "rob-4": CoreConfig(rob_size=4),
    "rob-32": CoreConfig(rob_size=32),
    "rob-256": CoreConfig(rob_size=256),
    "width-1": _width(1),
    "width-2": _width(2),
    "width-8": _width(8),
    "frontend-1": CoreConfig(frontend_depth=1),
    "frontend-20": CoreConfig(frontend_depth=20),
    "binding-fus": CoreConfig(fu_specs=BINDING_FUS),
    "binding-fus-narrow": _width(2, rob_size=8, fu_specs=BINDING_FUS),
    "no-timeline": CoreConfig(record_timeline=False),
    # One pipelined load unit at width 1: never binds, because a width-1
    # cycle issues one op; the core skips its reservation scan.
    "width-1-one-load-unit": _width(
        1,
        rob_size=4,
        fu_specs={**DEFAULT_FU_SPECS, OpClass.LOAD: FUSpec(count=1, latency=1)},
    ),
}


@pytest.mark.parametrize("name", sorted(SPEC_PROFILES))
def test_suite_profiles_under_the_baseline(name):
    result = assert_matches_oracle(suite_trace(name), CoreConfig(), name)
    assert result.events


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_machine_configs(key):
    config = CONFIGS[key]
    for trace in (
        suite_trace("gcc", 1_500),
        suite_trace("mcf", 1_500),
        generate_trace(DIVIDE_HEAVY, 1_500, seed=41),
    ):
        assert_matches_oracle(trace, config, key)


def test_binding_unit_delays_issue():
    """The unpipelined divider is the constraint the scan must model."""
    trace = generate_trace(DIVIDE_HEAVY, 1_500, seed=41)
    binding = assert_matches_oracle(trace, CoreConfig(fu_specs=BINDING_FUS))
    roomy = {**BINDING_FUS, OpClass.IDIV: FUSpec(count=8, latency=20)}
    free = assert_matches_oracle(trace, CoreConfig(fu_specs=roomy))
    assert binding.cycles > free.cycles


def test_fu_issue_counts_follow_the_config_order():
    reordered = dict(reversed(list(DEFAULT_FU_SPECS.items())))
    result = assert_matches_oracle(
        suite_trace("gzip", 800), CoreConfig(fu_specs=reordered)
    )
    assert list(result.fu_issue_counts) == [c.value for c in reordered]


def test_record_timeline_off_keeps_the_dispatch_column():
    result = assert_matches_oracle(
        suite_trace("gzip", 800), CoreConfig(record_timeline=False)
    )
    assert result.dispatch_cycle is not None
    assert result.issue_cycle is None and result.commit_cycle is None


def test_empty_and_single_record_traces():
    assert_matches_oracle(trace_of(), CoreConfig())
    assert_matches_oracle(
        trace_of([TraceRecord(OpClass.BRANCH, mispredict=True, il1_miss=True)]),
        CoreConfig(),
    )


FU_SPEC = st.builds(
    lambda count, latency, pipelined: FUSpec(
        count=count,
        latency=latency,
        issue_interval=1 if pipelined else latency,
    ),
    count=st.integers(min_value=1, max_value=4),
    latency=st.integers(min_value=1, max_value=12),
    pipelined=st.booleans(),
)

CONFIG_STRATEGY = st.builds(
    lambda width, rob, fus, **fields: CoreConfig(
        dispatch_width=width,
        issue_width=width,
        commit_width=width,
        rob_size=max(rob, width),
        fu_specs={**DEFAULT_FU_SPECS, **fus},
        **fields,
    ),
    width=st.sampled_from([1, 2, 4, 8]),
    rob=st.sampled_from([1, 4, 16, 32, 128]),
    fus=st.dictionaries(
        st.sampled_from([OpClass.IALU, OpClass.IDIV, OpClass.LOAD,
                         OpClass.BRANCH, OpClass.FMUL]),
        FU_SPEC,
        max_size=3,
    ),
    frontend_depth=st.integers(min_value=1, max_value=20),
    l1_latency=st.integers(min_value=1, max_value=4),
    l2_latency=st.integers(min_value=1, max_value=20),
    memory_latency=st.integers(min_value=20, max_value=300),
    record_timeline=st.booleans(),
)


class TestRandomConfigs:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        config=CONFIG_STRATEGY,
    )
    @settings(max_examples=40, deadline=None)
    def test_random_config_matches_oracle(self, seed, config):
        profile = WorkloadProfile(
            name="inorder-eq",
            mispredict_rate=0.08,
            il1_mpki=4.0,
            dl1_miss_rate=0.08,
            dl2_miss_rate=0.03,
        )
        trace = generate_trace(profile, 400, seed=seed)
        assert_matches_oracle(trace, config, f"seed={seed}")


@pytest.mark.parametrize("name", sorted(PREDICTORS))
def test_f17_predictors_match_the_oracle(name):
    trace = kernel_trace("branchy_search")
    runs = []
    for core, kind in CORES:
        hierarchy = CacheHierarchy(HierarchyConfig())
        annotator = _structural(PREDICTORS[name], hierarchy, kind)
        result = core(CoreConfig()).run(trace, annotator=annotator)
        unit = annotator.branch_unit
        runs.append(
            (
                vars(result),
                vars(unit.stats),
                vars(unit.direction.stats),
                _cache_stats(hierarchy),
            )
        )
    assert runs[0] == runs[1]
    assert runs[0][0]["events"]


@pytest.mark.parametrize("prefetch", [False, True], ids=["plain", "stride"])
def test_f18_hierarchies_match_the_oracle(prefetch):
    trace = stride_sum(elements=6_144, stride=1).run()
    runs = []
    for core, kind in CORES:
        hierarchy = CacheHierarchy(HierarchyConfig())
        memory_system, prefetcher = hierarchy, None
        if prefetch:
            prefetcher = StridePrefetcher(hierarchy.l1d, degree=4)
            memory_system = PrefetchingHierarchyAdapter(
                hierarchy, data_prefetcher=prefetcher
            )
        annotator = _structural(TournamentPredictor, memory_system, kind)
        result = core(CoreConfig()).run(trace, annotator=annotator)
        runs.append(
            (
                vars(result),
                _cache_stats(hierarchy),
                (hierarchy.memory.reads, hierarchy.memory.writes),
                vars(prefetcher.stats) if prefetcher else None,
            )
        )
    assert runs[0] == runs[1]
    assert runs[0][0]["events"]
    if prefetch:
        assert runs[0][3]["issued"] > 0


def test_zero_cycle_icache_miss_is_rejected():
    """The annotation pass refuses a miss that stalls no cycle, as it
    does for the out-of-order cores."""

    with pytest.raises(ValueError, match="at least one"):
        InOrderCore().run(suite_trace("gzip", 50), annotator=_zero_stall())


def _sanitized_report(core, traces, config):
    sanitizer.enable()
    try:
        for trace in traces:
            core(config).run(trace)
        return sanitizer.drain_report()
    finally:
        sanitizer.reset()
        sanitizer.disable()
        sanitizer.reset()


def test_sanitizer_report_matches_the_oracle():
    traces = [suite_trace(name, 1_500) for name in ("gzip", "mcf", "twolf")]
    config = CoreConfig(rob_size=32)
    got = _sanitized_report(InOrderCore, traces, config)
    want = _sanitized_report(ScalarInOrderCore, traces, config)
    assert (got.runs, got.checks_run, got.ok) == (
        want.runs, want.checks_run, want.ok
    )
    assert got.runs == len(traces) and got.ok
    assert got.checks_run > sum(len(t) for t in traces)
