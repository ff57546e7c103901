"""Integration tests spanning multiple subsystems."""

import pytest

from repro.frontend.base import BranchUnit
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.perfect import PerfectPredictor
from repro.frontend.tournament import TournamentPredictor
from repro.interval.penalty import measure_penalties
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.pipeline.annotate import StructuralAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.io import load_trace, save_trace
from repro.workloads.kernels import branchy_search, kernel_trace, pointer_chase
from tests.trace.records import TraceRecord, records_of, trace_of


def structural_annotator(predictor=None):
    unit = BranchUnit(
        direction=predictor or TournamentPredictor(), btb=BranchTargetBuffer()
    )
    hierarchy = CacheHierarchy(HierarchyConfig())
    return StructuralAnnotator(unit, hierarchy), unit, hierarchy


class TestKernelToSimulatorPipeline:
    """assemble -> functionally execute -> time on the core."""

    def test_branchy_search_mispredicts_structurally(self):
        config = CoreConfig()
        trace = branchy_search(elements=512).run()
        annotator, unit, _ = structural_annotator()
        result = simulate(trace, config, annotator=annotator)
        # data-dependent branches: real mispredictions must appear
        assert len(result.mispredict_events) > 50
        assert unit.direction.stats.accuracy < 0.9
        report = measure_penalties(result)
        assert report.mean_penalty > config.frontend_depth

    def test_perfect_prediction_removes_branch_events(self):
        config = CoreConfig()
        trace = branchy_search(elements=256).run()
        annotator, _, _ = structural_annotator(
            predictor=PerfectPredictor()
        )
        result = simulate(trace, config, annotator=annotator)
        # BTB may still miss targets on first sight; direction is perfect
        predicted = simulate(trace, config)  # oracle: no annotations at all
        assert len(result.mispredict_events) <= trace.statistics().branch_count
        assert predicted.cycles <= result.cycles

    def test_perfect_frontend_is_upper_bound(self):
        config = CoreConfig()
        trace = branchy_search(elements=256).run()
        structural, _, _ = structural_annotator()
        real = simulate(trace, config, annotator=structural)
        ideal = simulate(trace, config)  # unannotated -> no miss events
        assert ideal.cycles < real.cycles
        assert ideal.ipc > real.ipc

    def test_pointer_chase_latency_bound_structurally(self):
        config = CoreConfig()
        # large list: 8192 nodes x 16B = 128KB data, 2x the 64KB L1
        trace = pointer_chase(nodes=8192, laps=1).run()
        annotator, _, hierarchy = structural_annotator()
        result = simulate(trace, config, annotator=annotator)
        assert hierarchy.l1d.stats.miss_rate > 0.1
        assert result.ipc < 1.0  # serialized misses dominate


class TestTraceFileWorkflow:
    def test_save_simulate_load_simulate_identical(self, tmp_path, small_trace):
        config = CoreConfig()
        direct = simulate(small_trace, config)
        path = tmp_path / "trace.bin"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        replayed = simulate(loaded, config)
        assert replayed.cycles == direct.cycles
        assert len(replayed.events) == len(direct.events)


class TestStructuralVsOracleConsistency:
    def test_oracle_replay_of_structural_outcomes(self):
        """Annotating a trace with structurally observed outcomes and
        replaying it through the oracle path reproduces the timing."""
        config = CoreConfig()
        trace = kernel_trace("branchy_search")
        annotator, _, _ = structural_annotator()
        structural = simulate(trace, config, annotator=annotator)
        mispredicted = {e.seq for e in structural.mispredict_events}
        il1 = {e.seq for e in structural.icache_events}
        short = set()
        long_miss = set()
        for event in structural.long_dmiss_events:
            long_miss.add(event.seq)
        annotated_records = []
        for i, record in enumerate(records_of(trace)):
            annotated_records.append(
                TraceRecord(
                    op_class=record.op_class,
                    pc=record.pc,
                    deps=record.deps,
                    mem_addr=record.mem_addr,
                    taken=record.taken,
                    target=record.target,
                    mispredict=i in mispredicted,
                    il1_miss=i in il1,
                    dl1_miss=i in short,
                    dl2_miss=i in long_miss,
                )
            )
        replay = simulate(trace_of(annotated_records), config)
        assert len(replay.mispredict_events) == len(
            structural.mispredict_events
        )
        # timing differs only through short-miss latencies we dropped
        assert replay.cycles == pytest.approx(structural.cycles, rel=0.25)
