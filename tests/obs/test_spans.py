"""Unit tests for service spans: folding, merging, exports.

Everything runs on an injected tick clock, so identities (span ids,
timestamps, and therefore whole exports) are deterministic — the same
property the serve byte-identity test relies on end to end.
"""

from __future__ import annotations

import json

from repro.obs.export import (
    chrome_trace_from_spans,
    write_chrome_trace_spans,
)
from repro.obs.spans import (
    STACK_COMPONENTS,
    SpanCollector,
    collapse_stacks,
    fold_latency_stack_records,
    merge_span_snapshots,
    span_from_dict,
)


class Tick:
    """Integer-nanosecond clock advancing a fixed step per call."""

    def __init__(self, step: int = 100):
        self.t = 0
        self.step = step

    def __call__(self) -> int:
        self.t += self.step
        return self.t


def collector(**kwargs) -> SpanCollector:
    kwargs.setdefault("process", "serve")
    kwargs.setdefault("clock_ns", Tick())
    kwargs.setdefault("pid", 7)
    return SpanCollector(**kwargs)


class TestCollector:
    def test_ids_are_sequential_and_deterministic(self):
        c = collector()
        root = c.start("request", trace_id=c.new_trace_id(), parent_id=None)
        child = c.start(
            "pool_execute", trace_id=root.trace_id, parent_id=root.span_id
        )
        assert root.trace_id == "t-serve-000001"
        assert (root.span_id, child.span_id) == ("s000002", "s000003")

    def test_finish_is_idempotent(self):
        c = collector()
        span = c.start("request", trace_id="t1", parent_id=None)
        c.finish(span, status="ok")
        first_end = span.end_ns
        c.finish(span, status="error")
        assert span.end_ns == first_end
        assert span.status == "ok"
        assert len(c.snapshot()) == 1

    def test_abort_open_never_leaves_dangling_spans(self):
        c = collector()
        c.start("request", trace_id="t1", parent_id=None)
        c.start("pool_execute", trace_id="t1", parent_id="s000001")
        aborted = c.abort_open("shard-crashed")
        assert aborted == 2
        records = c.snapshot()
        assert all(r["status"] == "aborted" for r in records)
        assert all(r["end_ns"] is not None for r in records)
        assert all(
            r["args"]["abort_reason"] == "shard-crashed" for r in records
        )

    def test_mark_since_survives_fifo_trim(self):
        c = collector(max_spans=4)
        for i in range(6):
            c.add_complete(
                "serialize", trace_id="old", parent_id="root", start_ns=i
            )
        mark = c.mark()
        c.add_complete("serialize", trace_id="new", parent_id="root", start_ns=99)
        for i in range(5):  # trim past the mark position
            c.add_complete(
                "serialize", trace_id="fill", parent_id="root", start_ns=i
            )
        since = c.since_records(mark, trace_id="new")
        assert [r.trace_id for r in since] in ([], ["new"])
        # The buffer itself stays bounded.
        assert len(c.snapshot()) == 4

    def test_id_prefix_namespaces_absorbed_collectors(self):
        # Worker collectors must not mint ids that alias the service
        # collector's: parent edges resolve by id, so an absorbed bare
        # "s000001" would scramble every folded tree.
        c = collector()
        service_span = c.start("pool_execute", trace_id="t1", parent_id=None)
        worker = SpanCollector(
            process="worker", clock_ns=Tick(), pid=8,
            id_prefix=f"{service_span.span_id}.",
        )
        wspan = worker.start(
            "worker_execute", trace_id="t1", parent_id=service_span.span_id
        )
        assert wspan.span_id == f"{service_span.span_id}.s000001"
        worker.finish(wspan)
        c.absorb(worker.drain())
        ids = {r["span_id"] for r in c.snapshot()} | {service_span.span_id}
        assert len(ids) == 2

    def test_absorb_adopts_worker_records(self):
        c = collector()
        worker = SpanCollector(process="worker", clock_ns=Tick(), pid=8)
        span = worker.start("worker_execute", trace_id="t1", parent_id="s1")
        worker.finish(span)
        assert c.absorb(worker.drain()) == 1
        assert c.snapshot()[0]["process"] == "worker"
        assert worker.drain() == []


def _request_tree(trace="t1"):
    """A closed request tree: root + cache miss + pool + put + serialize."""
    mk = lambda **kw: dict(  # noqa: E731 - local literal builder
        {"trace_id": trace, "parent_id": "root", "status": "ok",
         "process": "serve", "pid": 1, "args": {}},
        **kw,
    )
    root = mk(span_id="root", parent_id=None, name="request",
              start_ns=0, end_ns=1000)
    spans = [
        mk(span_id="a", name="cache_tier0", start_ns=10, end_ns=60),
        mk(span_id="b", name="cache_backend", start_ns=60, end_ns=160),
        mk(span_id="c", name="pool_execute", start_ns=160, end_ns=760),
        # Worker span: a grandchild, must not be double-counted.
        mk(span_id="w", parent_id="c", name="worker_execute",
           process="worker", start_ns=200, end_ns=700),
        mk(span_id="d", name="store_put", start_ns=760, end_ns=900),
        mk(span_id="e", name="serialize", start_ns=900, end_ns=980),
    ]
    return root, spans


def fold_records(root, spans):
    """The production fold, over records built from span dicts."""
    return fold_latency_stack_records(
        span_from_dict(root), [span_from_dict(s) for s in spans]
    )


class TestFolding:
    def test_stack_sums_exactly_to_wall(self):
        root, spans = _request_tree()
        stack = fold_records(root, spans)
        assert sum(stack.values()) == 1000
        assert stack["queue_wait"] == 1000 - 970
        assert stack["pool_execute"] == 600
        assert "worker_execute" not in stack
        assert list(stack) == [
            n for n in STACK_COMPONENTS if n in stack
        ]

    def test_coalesced_follower_charges_wait_not_work(self):
        # The follower's only component overlaps the leader's execute
        # span entirely; the identity must still hold exactly.
        root = {"trace_id": "t2", "span_id": "r2", "parent_id": None,
                "name": "request", "start_ns": 100, "end_ns": 900}
        spans = [
            {"trace_id": "t2", "span_id": "cw", "parent_id": "leader-exec",
             "name": "coalesce_wait", "start_ns": 150, "end_ns": 850},
            {"trace_id": "t2", "span_id": "sz", "parent_id": "r2",
             "name": "serialize", "start_ns": 850, "end_ns": 880},
        ]
        stack = fold_records(root, spans)
        assert sum(stack.values()) == 800
        assert stack["coalesce_wait"] == 700

    def test_overlapping_sweep_points_shave_waiting_side_first(self):
        root = {"trace_id": "t3", "span_id": "r3", "parent_id": None,
                "name": "request", "start_ns": 0, "end_ns": 500}
        spans = [
            # Two concurrent pool executions (sweep fan-out) plus a
            # coalesce_wait covering both: raw sums exceed the wall.
            {"trace_id": "t3", "span_id": "p1", "parent_id": "r3",
             "name": "pool_execute", "start_ns": 0, "end_ns": 400},
            {"trace_id": "t3", "span_id": "p2", "parent_id": "r3",
             "name": "pool_execute", "start_ns": 100, "end_ns": 500},
            {"trace_id": "t3", "span_id": "cw", "parent_id": "x",
             "name": "coalesce_wait", "start_ns": 0, "end_ns": 500},
        ]
        stack = fold_records(root, spans)
        assert sum(stack.values()) == 500
        assert stack["pool_execute"] == 500  # union, charged as work

    def test_open_and_foreign_trace_spans_are_ignored(self):
        root, spans = _request_tree()
        spans.append({"trace_id": "t1", "span_id": "z", "parent_id": "root",
                      "name": "serialize", "start_ns": 0, "end_ns": None})
        spans.append({"trace_id": "OTHER", "span_id": "y", "parent_id": "root",
                      "name": "pool_execute", "start_ns": 0, "end_ns": 999})
        stack = fold_records(root, spans)
        assert sum(stack.values()) == 1000


class TestMerge:
    def test_merge_is_order_independent_and_dedupes(self):
        root, spans = _request_tree()
        all_spans = [root, *spans]
        a = all_spans[:3]
        b = all_spans[2:]  # overlaps one record with a
        merged_ab = merge_span_snapshots([a, b])
        merged_ba = merge_span_snapshots([b, a])
        assert merged_ab == merged_ba
        assert len(merged_ab) == len(all_spans)

    def test_same_id_different_process_kept_apart(self):
        rec = {"trace_id": "t", "span_id": "s1", "parent_id": None,
               "name": "request", "start_ns": 0, "end_ns": 1,
               "process": "serve", "pid": 1}
        other = dict(rec, process="worker", pid=2)
        assert len(merge_span_snapshots([[rec], [other]])) == 2


class TestExports:
    def test_chrome_trace_roundtrips_and_is_byte_identical(self, tmp_path):
        def build():
            c = collector()
            root = c.start("request", trace_id=c.new_trace_id(),
                           parent_id=None, op="simulate")
            child = c.start("pool_execute", trace_id=root.trace_id,
                            parent_id=root.span_id)
            c.finish(child)
            c.finish(root)
            return c.snapshot()

        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        # 2 span events + 2 metadata rows (process_name, thread_name).
        assert write_chrome_trace_spans(build(), out_a) == 4
        assert write_chrome_trace_spans(build(), out_b) == 4
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        events = payload["traceEvents"]
        kinds = {e["ph"] for e in events}
        assert kinds == {"M", "X"}
        xs = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] > 0 for e in xs)
        assert {e["args"]["span_id"] for e in xs} == {"s000002", "s000003"}

    def test_open_spans_are_excluded_from_chrome_export(self):
        c = collector()
        c.start("request", trace_id="t1", parent_id=None)
        trace = chrome_trace_from_spans(c.snapshot() + [
            s.as_dict() for s in c._open.values()
        ])
        assert all(e["ph"] != "X" for e in trace["traceEvents"])

    def test_collapse_stacks_self_time(self):
        root, spans = _request_tree()
        lines = collapse_stacks([root, *spans])
        flame = dict(
            line.rsplit(" ", 1) for line in lines
        )
        assert flame["request;pool_execute;worker_execute"] == "500"
        assert flame["request;pool_execute"] == "100"
        # Root self time: 1000 wall minus 970 of direct children.
        assert flame["request"] == "30"

    def test_span_from_dict_roundtrip(self):
        c = collector()
        span = c.start("request", trace_id="t", parent_id=None, op="sweep")
        c.finish(span, status="error")
        rebuilt = span_from_dict(span.as_dict())
        assert rebuilt.as_dict() == span.as_dict()
