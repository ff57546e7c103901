import json

import pytest

from spans import (
    Span,
    SpanRecorder,
    chrome_events,
    fold_self_ns,
    spans_from_json,
    spans_to_json,
    write_chrome_trace,
)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_fold_subtracts_nested_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock_ns=clock)
    root = recorder.begin("harness.round")
    clock.now = 10
    with recorder.span("harness.t3", op_id="t3"):
        clock.now = 20
        with recorder.span("pipeline.simulate"):
            clock.now = 50
        with recorder.span("interval.predict"):
            clock.now = 60
            with recorder.span("lab.store_get"):
                clock.now = 65
            clock.now = 80
        clock.now = 90
    clock.now = 100
    recorder.end(root)

    folded = fold_self_ns(recorder.spans)
    assert folded == {
        "harness.round": 20,
        "harness.t3": 20,
        "pipeline.simulate": 30,
        "interval.predict": 25,
        "lab.store_get": 5,
    }
    assert sum(folded.values()) == recorder.spans[root].duration_ns
    # Children inherit the experiment id of the span that caused them.
    assert {s.op_id for s in recorder.spans[1:]} == {"t3"}


def test_fold_sums_repeated_names_and_clips_overlap():
    spans = [
        Span("root", 0, 100),
        Span("a", 10, 30, parent=0),
        Span("a", 40, 60, parent=0),
        # Overlapping siblings (as from two threads) count once.
        Span("b", 50, 70, parent=0),
        Span("c", 90, 120, parent=0),  # runs past its parent
    ]
    folded = fold_self_ns(spans)
    assert folded["a"] == 40
    assert folded["root"] == 100 - (20 + 30 + 10)


def test_wrap_records_and_reports_results():
    recorder = SpanRecorder()
    seen = []
    double = recorder.wrap(lambda x: 2 * x, "layer.double", seen.append)
    with recorder.span("root"):
        assert double(4) == 8
    assert [s.name for s in recorder.spans] == ["root", "layer.double"]
    assert recorder.spans[1].parent == 0
    assert seen == [8]


def test_wrap_closes_span_when_call_raises():
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap(boom, "layer.boom")()
    assert recorder.spans[0].end_ns >= recorder.spans[0].start_ns
    assert recorder.begin("next") == 1  # the stack was unwound


def test_round_trip_and_chrome_export(tmp_path):
    spans = [Span("harness.round", 1_000, 5_000),
             Span("trace.generate", 2_000, 3_000, parent=0, op_id="t2")]
    assert spans_from_json(json.loads(json.dumps(spans_to_json(spans)))) == spans
    events = chrome_events(spans, pid=1, tid=1, base_ns=1_000)
    assert events[1]["ts"] == 1.0 and events[1]["dur"] == 1.0
    assert events[1]["cat"] == "trace" and events[1]["args"]["op"] == "t2"
    path = tmp_path / "trace.json"
    write_chrome_trace(path, events)
    assert json.loads(path.read_text())["traceEvents"] == events
