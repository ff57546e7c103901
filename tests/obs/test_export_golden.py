"""The trace exports of one hand-built run, pinned byte for byte.

One :class:`SimulationResult` holds a mispredict (with window occupancy
and wrong-path ghosts), an I-cache miss and a long D-miss; the run is
reported through :func:`observe_run` like every simulated config, one
interval instant is added, and the Chrome-trace and JSONL files must
equal the literal documents below.
"""

from __future__ import annotations

import json

from repro.obs import runtime
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
)
from repro.pipeline.result import SimulationResult, observe_run

RESULT = SimulationResult(
    instructions=10,
    cycles=240,
    events=[
        ICacheMissEvent(seq=0, cycle=5, latency=12, long_miss=False),
        BranchMispredictEvent(
            seq=3,
            cycle=20,
            resolve_cycle=31,
            refill_cycles=5,
            window_occupancy=9,
            wrong_path_instructions=14,
        ),
        LongDMissEvent(seq=7, cycle=24, complete_cycle=230),
    ],
)


def _meta(tid, name, kind="thread_name"):
    return {"ph": "M", "pid": 0, "tid": tid, "name": kind, "args": {"name": name}}


EXPECTED_CHROME = {
    "traceEvents": [
        _meta(0, "golden", kind="process_name"),
        _meta(1, "branch mispredicts"),
        _meta(2, "icache misses"),
        _meta(3, "long dcache misses"),
        _meta(4, "intervals"),
        {"ph": "X", "pid": 0, "tid": 2, "name": "icache_miss",
         "cat": "icache", "ts": 5, "dur": 12, "args": {"seq": 0}},
        {"ph": "X", "pid": 0, "tid": 1, "name": "mispredict",
         "cat": "bpred", "ts": 20, "dur": 16,
         "args": {"seq": 3, "resolution_cycles": 11, "refill_cycles": 5,
                  "penalty_cycles": 16, "wrong_path_instructions": 14,
                  "window_occupancy": 9}},
        {"ph": "X", "pid": 0, "tid": 1, "name": "resolve",
         "cat": "bpred", "ts": 20, "dur": 11, "args": {"seq": 3}},
        {"ph": "X", "pid": 0, "tid": 1, "name": "refill",
         "cat": "bpred", "ts": 31, "dur": 5, "args": {"seq": 3}},
        {"ph": "b", "ts": 24, "args": {"seq": 7, "latency": 206},
         "pid": 0, "tid": 3, "name": "long_dmiss", "cat": "dmiss", "id": 7},
        {"ph": "e", "ts": 230, "args": {},
         "pid": 0, "tid": 3, "name": "long_dmiss", "cat": "dmiss", "id": 7},
        {"ph": "i", "pid": 0, "tid": 4, "name": "interval_boundary",
         "cat": "interval", "ts": 20, "s": "t",
         "args": {"seq": 3, "length_instructions": 4,
                  "kind": "branch_mispredict"}},
    ],
    "displayTimeUnit": "ns",
    "otherData": {"time_unit": "simulated core cycles (1 cycle = 1 us)"},
}

EXPECTED_JSONL = (
    '{"dispatch_cycle":5,"duration_cycles":12,"kind":"icache",'
    '"refill_cycles":0,"resolve_cycle":17,"seq":0,"type":"span",'
    '"window_occupancy":0,"wrong_path_instructions":0}\n'
    '{"dispatch_cycle":20,"duration_cycles":16,"kind":"bpred",'
    '"refill_cycles":5,"resolve_cycle":31,"seq":3,"type":"span",'
    '"window_occupancy":9,"wrong_path_instructions":14}\n'
    '{"dispatch_cycle":24,"duration_cycles":206,"kind":"long_dmiss",'
    '"refill_cycles":0,"resolve_cycle":230,"seq":7,"type":"span",'
    '"window_occupancy":0,"wrong_path_instructions":0}\n'
    '{"cycle":20,"kind":"branch_mispredict","length_instructions":4,'
    '"name":"interval_boundary","seq":3,"type":"instant"}\n'
)


def _recorded_run():
    runtime.enable_tracing()
    observe_run(RESULT)
    tracer = runtime.current_tracer()
    tracer.instant(
        "interval_boundary",
        cycle=20,
        seq=3,
        length_instructions=4,
        kind="branch_mispredict",
    )
    return tracer


def test_chrome_trace_matches_literal_document(tmp_path):
    path = tmp_path / "trace.json"
    written = write_chrome_trace(_recorded_run(), path, label="golden")
    text = path.read_text()
    assert json.loads(text) == EXPECTED_CHROME
    assert text == json.dumps(
        EXPECTED_CHROME, sort_keys=True, separators=(",", ":")
    ) + "\n"
    assert written == len(EXPECTED_CHROME["traceEvents"])


def test_jsonl_matches_literal_document(tmp_path):
    path = tmp_path / "trace.jsonl"
    assert write_jsonl(_recorded_run(), path) == 4
    assert path.read_text() == EXPECTED_JSONL


def test_counts_one_per_kind():
    assert _recorded_run().counts() == {"icache": 1, "bpred": 1, "long_dmiss": 1}
