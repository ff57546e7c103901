"""Unit tests for the interval estimator: the first-order model
(``predict``) and the accounting it shares with ``estimate``."""

import pytest

from repro.interval.model import IntervalModel
from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from repro.util.rng import derive_seed
from repro.workloads.spec_profiles import SPEC_PROFILES
from tests.trace.records import TraceRecord, trace_of


class TestEventPositions:
    def test_extraction(self):
        records = [
            TraceRecord(OpClass.IALU),
            TraceRecord(OpClass.BRANCH, mispredict=True),
            TraceRecord(OpClass.IALU, il1_miss=True),
            TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True),
            TraceRecord(OpClass.LOAD, mem_addr=0, dl1_miss=True),  # short: no event
        ]
        positions = IntervalModel.event_positions(trace_of(records))
        assert positions == [(1, "bpred"), (2, "icache"), (3, "long")]

    def test_bpred_wins_on_same_instruction(self):
        record = TraceRecord(OpClass.BRANCH, mispredict=True, il1_miss=True)
        positions = IntervalModel.event_positions(trace_of([record]))
        assert positions == [(0, "bpred")]


class TestPrediction:
    def test_base_cycles(self):
        config = CoreConfig()
        trace = trace_of([TraceRecord(OpClass.IALU) for _ in range(400)])
        prediction = IntervalModel(config).predict(trace)
        assert prediction.base_cycles == pytest.approx(100.0)
        assert prediction.mispredict_cycles == 0.0

    def test_components_sum(self):
        trace = generate_trace(WorkloadProfile(), 10_000, seed=3)
        prediction = IntervalModel(CoreConfig()).predict(trace)
        assert prediction.cycles == pytest.approx(
            sum(prediction.components().values())
        )

    def test_event_counts_match_trace(self):
        trace = generate_trace(WorkloadProfile(), 10_000, seed=3)
        prediction = IntervalModel(CoreConfig()).predict(trace)
        assert prediction.mispredict_count == trace.statistics().mispredict_count

    def test_mlp_correction_merges_adjacent_long_misses(self):
        config = CoreConfig()
        records = []
        # two long misses one instruction apart: should cost ~one latency
        records.append(TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True))
        records.append(TraceRecord(OpClass.LOAD, mem_addr=64, dl2_miss=True))
        records.extend(TraceRecord(OpClass.IALU) for _ in range(500))
        near = IntervalModel(config).predict(trace_of(records))
        # two long misses far apart: two latencies
        records2 = [TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True)]
        records2.extend(TraceRecord(OpClass.IALU) for _ in range(300))
        records2.append(TraceRecord(OpClass.LOAD, mem_addr=64, dl2_miss=True))
        records2.extend(TraceRecord(OpClass.IALU) for _ in range(200))
        far = IntervalModel(config).predict(trace_of(records2))
        assert near.long_dmiss_cycles == pytest.approx(config.memory_latency)
        assert far.long_dmiss_cycles == pytest.approx(2 * config.memory_latency)

    def test_cpi_accuracy_against_simulation(self):
        config = CoreConfig()
        trace = generate_trace(WorkloadProfile(name="acc"), 30_000, seed=21)
        result = simulate(trace, config)
        prediction = IntervalModel(config).predict(trace)
        assert abs(prediction.error_vs(result)) < 0.20

    def test_penalty_prediction_in_range(self):
        config = CoreConfig()
        trace = generate_trace(WorkloadProfile(name="pen"), 30_000, seed=22)
        result = simulate(trace, config)
        from repro.interval.penalty import measure_penalties

        measured = measure_penalties(result).mean_penalty
        predicted = IntervalModel(config).predict(trace).mean_penalty
        assert predicted == pytest.approx(measured, rel=0.45)

    def test_occupancy_bounded_by_rob(self):
        config = CoreConfig(rob_size=32)
        # one mispredict after a huge gap: occupancy capped at 32
        records = [TraceRecord(OpClass.IALU) for _ in range(5000)]
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True))
        model = IntervalModel(config)
        trace = trace_of(records)
        prediction = model.predict(trace)
        drain = model.fit(trace).predict_drain(32)
        assert prediction.mispredict_cycles == pytest.approx(
            drain + config.frontend_depth
        )

    def test_empty_trace(self):
        prediction = IntervalModel(CoreConfig(), ilp_fit=None)
        trace = generate_trace(WorkloadProfile(), 256, seed=1)
        assert prediction.predict(trace).instructions == 256


class TestFitPerTrace:
    def traces(self):
        return [
            generate_trace(SPEC_PROFILES[name], 5000, seed=2006)
            for name in ("gzip", "mcf")
        ]

    def test_one_instance_equals_fresh_instances(self):
        config = CoreConfig()
        shared = IntervalModel(config)
        for trace in self.traces():
            fresh = IntervalModel(config).predict(trace)
            assert shared.predict(trace) == fresh
        assert shared.ilp_fit is None

    def test_a_given_fit_serves_every_trace(self):
        config = CoreConfig()
        gzip, mcf = self.traces()
        fit = IntervalModel(config).fit(gzip)
        model = IntervalModel(config, ilp_fit=fit)
        assert model.fit(mcf) is fit
        assert model.predict(mcf) != IntervalModel(config).predict(mcf)


@pytest.mark.parametrize("name", list(SPEC_PROFILES))
def test_predict_and_estimate_share_one_accounting(name):
    """Both drain rules walk the same events: everything but the
    misprediction drain agrees exactly, and each misprediction is
    charged its resolution plus one refill."""
    config = CoreConfig()
    trace = generate_trace(SPEC_PROFILES[name], 6000, seed=derive_seed(2006, name))
    model = IntervalModel(config)
    predicted = model.predict(trace)
    estimated = model.estimate(trace)
    for field in (
        "instructions",
        "base_cycles",
        "icache_cycles",
        "long_dmiss_cycles",
        "mispredict_count",
        "icache_count",
        "long_dmiss_count",
    ):
        assert getattr(predicted, field) == getattr(estimated, field), field
    assert estimated.mispredict_count > 0
    for result in (predicted, estimated):
        assert len(result.resolutions) == result.mispredict_count
        assert result.mispredict_cycles == pytest.approx(
            sum(result.resolutions)
            + result.mispredict_count * config.frontend_depth
        )
    assert estimated.mispredict_cycles == (
        sum(estimated.resolutions)
        + estimated.mispredict_count * config.frontend_depth
    )
