"""Column-reading interval model against the record-walk oracle, exactly.

``IntervalModel.predict`` takes its latencies, miss events and
dependence walks from the trace's columns; the latency columns and
``backward_slice_latency`` behind the contributor decomposition read
them too. ``scalar_model`` keeps the record walks. Every
``ModelPrediction`` field and every slice depth must be equal (``==``).
"""

import pytest

from repro.interval.ilp import (
    backward_slice_latencies,
    backward_slice_latency,
    depends_on,
    fu_latency,
    full_latency,
    unit_latency,
)
from repro.interval.model import IntervalModel
from repro.interval.penalty import measure_penalties
from repro.perf.batchcore import run_batch
from repro.pipeline.config import CoreConfig
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES

from tests.interval.scalar_model import (
    scalar_backward_slice_latency,
    scalar_depends_on,
    scalar_event_positions,
    scalar_fu_latency,
    scalar_full_latency,
    scalar_predict,
    scalar_steady_latency,
    scalar_unit_latency,
)
from tests.trace.test_stream_differential import cases
from tests.trace.records import records_of, trace_of


@pytest.mark.parametrize("make", cases())
def test_predict_matches_record_walk(make):
    trace = make()
    config = CoreConfig()
    model = IntervalModel(config)
    got = model.predict(trace)
    got_events = model.event_positions(trace)
    oracle = trace_of(records_of(trace), name=trace.name)
    assert got == scalar_predict(oracle, config)
    assert got_events == scalar_event_positions(oracle)


@pytest.mark.parametrize("name", ["gzip", "mcf", "crafty"])
def test_depends_on_matches_record_walk(name):
    trace = generate_trace(SPEC_PROFILES[name], 4000, seed=11)
    oracle = trace_of(records_of(trace))
    model = IntervalModel(CoreConfig())
    longs = [seq for seq, kind in model.event_positions(trace) if kind == "long"]
    pairs = list(zip(longs, longs[1:])) + [(seq, seq - 3) for seq in longs[:20]]
    for consumer, producer in pairs:
        consumer, producer = max(consumer, producer), min(consumer, producer)
        if producer < 0 or producer == consumer:
            continue
        assert depends_on(trace, consumer, producer) == scalar_depends_on(
            oracle, consumer, producer
        )


@pytest.mark.parametrize("name", ["gzip", "mcf", "twolf"])
def test_latency_columns_and_slices_match_record_walk(name):
    config = CoreConfig()
    trace = generate_trace(SPEC_PROFILES[name], 6000, seed=5)
    result = run_batch(trace, [config])[0]
    oracle = trace_of(records_of(trace))
    pairs = [
        (unit_latency(trace), scalar_unit_latency(oracle)),
        (
            fu_latency(trace, config.fu_specs, config),
            scalar_fu_latency(oracle, config.fu_specs, config),
        ),
        (
            fu_latency(trace, config.fu_specs),
            scalar_fu_latency(oracle, config.fu_specs),
        ),
        (
            full_latency(trace, config.fu_specs, config),
            scalar_full_latency(oracle, config.fu_specs, config),
        ),
        (
            IntervalModel(config)._steady_latency(trace),
            scalar_steady_latency(oracle, config),
        ),
    ]
    for column, walk in pairs:
        got = column.column.tolist()
        assert got == [walk(seq) for seq in range(len(trace))]
        assert list(map(column, range(len(trace)))) == got

    complete = result.complete_cycle
    dispatch = result.dispatch_cycle
    items = measure_penalties(result).decompositions
    assert items
    for item in items:
        start = max(0, item.seq - item.window_occupancy)

        def satisfied(seq, _at=dispatch[item.seq]):
            return complete[seq] != 0 and complete[seq] <= _at

        for predicate in (None, satisfied):
            want = [
                scalar_backward_slice_latency(
                    oracle, item.seq, start, walk, satisfied=predicate
                )
                for _, walk in pairs[:4]
            ]
            assert backward_slice_latencies(
                trace, item.seq, start, [c for c, _ in pairs[:4]], predicate
            ) == want
            assert [
                backward_slice_latency(trace, item.seq, start, c, predicate)
                for c, _ in pairs[:4]
            ] == want
