"""Unit tests for the tracer, the runtime switches, and the exports."""

from __future__ import annotations

import json
import os

from repro.obs import runtime
from repro.obs.export import (
    TID_BPRED,
    TID_LONG_DMISS,
    chrome_trace,
    chrome_trace_events,
    jsonl_records,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import (
    KIND_BPRED,
    KIND_ICACHE,
    KIND_LONG_DMISS,
    MissSpan,
    RecordingTracer,
    Tracer,
)


def _bpred_span(seq=5, dispatch=100, resolve=120, refill=5):
    return MissSpan(
        kind=KIND_BPRED,
        seq=seq,
        dispatch_cycle=dispatch,
        resolve_cycle=resolve,
        refill_cycles=refill,
        window_occupancy=12,
        wrong_path_instructions=7,
    )


class TestSpans:
    def test_span_arithmetic(self):
        span = _bpred_span()
        assert span.resolution == 20
        assert span.end_cycle == 125
        assert span.duration == 25  # resolution + refill == the penalty

    def test_noop_tracer_swallows_everything(self):
        tracer = Tracer()
        tracer.miss_span(_bpred_span())
        tracer.instant("interval_boundary", cycle=3)
        assert not tracer.enabled

    def test_recording_tracer_buffers_in_order(self):
        tracer = RecordingTracer()
        tracer.miss_span(_bpred_span(seq=1))
        tracer.miss_span(MissSpan(KIND_ICACHE, 2, 10, 20))
        tracer.instant("interval_boundary", cycle=20, seq=2)
        assert len(tracer) == 3
        assert tracer.counts() == {KIND_BPRED: 1, KIND_ICACHE: 1}
        assert [s.seq for s in tracer.spans_of_kind(KIND_BPRED)] == [1]
        assert tracer.instants[0].args == {"seq": 2}


class TestRuntime:
    def test_disabled_by_default(self):
        assert runtime.current_tracer() is None
        assert runtime.current_metrics() is None
        assert runtime.drain_trace() is None
        assert runtime.drain_metrics() is None

    def test_enable_exports_env_for_workers(self):
        runtime.enable_tracing()
        assert os.environ[runtime.ENV_TRACE] == "1"
        assert runtime.current_tracer() is not None

    def test_env_var_activates_without_forcing(self):
        os.environ[runtime.ENV_METRICS] = "1"
        assert runtime.metrics_enabled()
        runtime.current_metrics().counter("core.cycles_total").inc()
        assert runtime.drain_metrics() is not None

    def test_drain_opens_a_fresh_window(self):
        runtime.enable_tracing()
        runtime.current_tracer().miss_span(_bpred_span())
        first = runtime.drain_trace()
        assert first is not None and len(first) == 1
        assert runtime.drain_trace() is None  # window is fresh
        assert runtime.current_tracer() is not first

    def test_empty_windows_drain_to_none(self):
        runtime.enable_tracing()
        runtime.enable_metrics()
        runtime.current_tracer()
        runtime.current_metrics()
        assert runtime.drain_trace() is None
        assert runtime.drain_metrics() is None

    def test_reset_clears_flags_state_and_env(self):
        runtime.enable_tracing()
        runtime.enable_metrics()
        os.environ[runtime.ENV_TRACE_DIR] = "/tmp/nowhere"
        runtime.reset()
        assert not runtime.tracing_enabled()
        assert runtime.ENV_TRACE not in os.environ
        assert runtime.trace_dir() is None


class TestChromeExport:
    def _tracer(self):
        tracer = RecordingTracer()
        tracer.miss_span(_bpred_span())
        tracer.miss_span(MissSpan(KIND_LONG_DMISS, 9, 50, 300))
        tracer.instant("interval_boundary", cycle=125, seq=5)
        return tracer

    def test_mispredict_span_duration_is_the_penalty(self):
        events = chrome_trace_events(self._tracer())
        parents = [e for e in events if e.get("name") == "mispredict"]
        assert len(parents) == 1
        parent = parents[0]
        assert parent["ph"] == "X" and parent["tid"] == TID_BPRED
        assert parent["dur"] == 25
        assert (
            parent["args"]["resolution_cycles"]
            + parent["args"]["refill_cycles"]
            == parent["args"]["penalty_cycles"]
        )
        children = [e["name"] for e in events
                    if e["tid"] == TID_BPRED and e["ph"] == "X"
                    and e["name"] != "mispredict"]
        assert children == ["resolve", "refill"]

    def test_long_dmiss_becomes_async_pair(self):
        events = chrome_trace_events(self._tracer())
        phases = [e["ph"] for e in events if e["tid"] == TID_LONG_DMISS
                  and e["ph"] != "M"]
        assert phases == ["b", "e"]

    def test_document_shape_and_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(self._tracer(), path, label="unit")
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        assert len(document["traceEvents"]) == count
        process_meta = document["traceEvents"][0]
        assert process_meta["ph"] == "M"
        assert chrome_trace(self._tracer())["otherData"]


class TestJsonlExport:
    def test_one_record_per_span_and_instant(self, tmp_path):
        tracer = RecordingTracer()
        tracer.miss_span(_bpred_span())
        tracer.instant("interval_boundary", cycle=9, kind="bpred")
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(tracer, path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "span"
        assert lines[0]["duration_cycles"] == 25
        assert lines[1] == {
            "type": "instant", "name": "interval_boundary",
            "cycle": 9, "kind": "bpred",
        }

    def test_records_match_spans(self):
        tracer = RecordingTracer()
        tracer.miss_span(_bpred_span(seq=3))
        (record,) = jsonl_records(tracer)
        assert record["seq"] == 3
        assert record["wrong_path_instructions"] == 7
