"""Request-scoped spans, latency stacks, and flame folding.

Where :mod:`repro.obs.tracer` records *simulated* time (miss-event
timestamps are cycles), this module records *service* time: what one
``simulate`` request spent queueing, coalescing, probing cache tiers,
executing on a shard pool, and serializing its reply.  The shapes
mirror each other deliberately — both export to the same Perfetto
Chrome-trace format — but span timestamps here are **integer
nanoseconds** from :data:`repro.util.timing.default_clock_ns`, so a
request's latency stack can sum to its wall latency exactly, the
service-level analog of the paper's penalty decomposition summing to
the measured misprediction penalty.

Identity is deterministic: ids are derived from a per-collector
sequence number, never from a PRNG or the wall clock, so same-seed
runs with an injected tick clock export byte-identical traces.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.util.timing import default_clock_ns

#: Span lifecycle states. ``aborted`` marks spans force-closed by
#: :meth:`SpanCollector.abort_open` (e.g. a shard died mid-request) —
#: a span must never dangle in an export.
SPAN_STATUSES = ("open", "ok", "error", "aborted")

#: The latency-stack components a request span tree folds into, in
#: display order. ``queue_wait`` is the residue: wall minus everything
#: the tree explains, so the stack always sums to wall exactly.
STACK_COMPONENTS = (
    "queue_wait",
    "coalesce_wait",
    "cache_tier0",
    "cache_backend",
    "pool_execute",
    "store_put",
    "serialize",
)


@dataclass(slots=True)
class SpanRecord:
    """One timed operation inside a request's span tree.

    ``slots=True`` matters: a traced warm request allocates several of
    these on its critical path, and the serve overhead benchmark holds
    that path to single-digit percent of an untraced round trip.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_ns: int
    end_ns: Optional[int] = None
    status: str = "open"
    process: str = "main"
    pid: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return max(0, self.end_ns - self.start_ns)

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "status": self.status,
            "process": self.process,
            "pid": self.pid,
        }
        if self.args:
            record["args"] = dict(self.args)
        return record


def span_from_dict(record: Dict[str, Any]) -> SpanRecord:
    return SpanRecord(
        trace_id=str(record["trace_id"]),
        span_id=str(record["span_id"]),
        parent_id=record.get("parent_id"),
        name=str(record["name"]),
        start_ns=int(record["start_ns"]),
        end_ns=None if record.get("end_ns") is None else int(record["end_ns"]),
        status=str(record.get("status", "ok")),
        process=str(record.get("process", "main")),
        pid=int(record.get("pid", 0)),
        args=dict(record.get("args") or {}),
    )


class SpanCollector:
    """Accumulates spans for one process, with deterministic identity.

    ``clock_ns`` is injectable (tests substitute a tick counter) and
    must return integer nanoseconds.  ``span_seq`` seeds the id
    sequence so two collectors in one process (service + tests) cannot
    collide when their spans are merged.
    """

    def __init__(
        self,
        process: str = "main",
        clock_ns: Callable[[], int] = default_clock_ns,
        pid: Optional[int] = None,
        span_seq: int = 0,
        max_spans: Optional[int] = None,
        id_prefix: str = "",
    ):
        self.process = process
        self._clock_ns = clock_ns
        self.pid = os.getpid() if pid is None else pid
        self._seq = span_seq
        self.max_spans = max_spans
        #: Prepended to every generated id. Collectors whose spans are
        #: absorbed into another collector's buffer (pool workers) MUST
        #: set a prefix unique among siblings — ids are how parent
        #: edges resolve, so a bare worker "s000001" would alias the
        #: service's "s000001" and scramble every folded tree. Deriving
        #: the prefix from the dispatch span's id keeps it both unique
        #: and deterministic (same-seed byte-identical exports).
        self.id_prefix = id_prefix
        self._trace_prefix = f"t-{self.process}-"
        self._spans: List[SpanRecord] = []
        #: Index of the oldest *retained* span in ``_spans``. FIFO
        #: eviction advances this head lazily instead of deleting the
        #: list front — a front-delete is an O(buffer) memmove, paid on
        #: every span once a long-lived service fills its buffer.
        self._head = 0
        self._open: Dict[str, SpanRecord] = {}
        # Monotonic append accounting, so a caller can mark a position
        # and later read back "everything closed since" in O(new spans)
        # even after old spans were trimmed or drained.
        self._appended = 0
        self._dropped = 0

    def __len__(self) -> int:
        return len(self._spans) - self._head + len(self._open)

    def _append(self, span: SpanRecord) -> None:
        self._spans.append(span)
        self._appended += 1
        if (
            self.max_spans is not None
            and len(self._spans) - self._head > self.max_spans
        ):
            self._head += 1
            self._dropped += 1
            if self._head >= self.max_spans:
                # Compact once the dead prefix matches the live window:
                # one O(buffer) delete per max_spans appends, so steady
                # state stays amortized O(1) per span.
                del self._spans[: self._head]
                self._head = 0

    def mark(self) -> int:
        """A position token for :meth:`since_records` (appends so far)."""
        return self._appended

    def since_records(
        self, mark: int, trace_id: Optional[str] = None
    ) -> List[SpanRecord]:
        """Closed spans appended after *mark*, as live records.

        This is how the service folds one request's latency stack
        without rescanning its whole span buffer — or paying a dict
        conversion per span — on every request.
        """
        start = max(0, mark - self._dropped) + self._head
        spans = self._spans[start:]
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        return spans

    def now(self) -> int:
        return self._clock_ns()

    def _next_id(self, prefix: str) -> str:
        self._seq += 1
        # str+zfill, not an f-string format spec: same output, and a
        # traced request mints several ids on its critical path.
        return self.id_prefix + prefix + str(self._seq).zfill(6)

    def new_trace_id(self) -> str:
        """A fresh trace id for a request that arrived without one."""
        return self._next_id(self._trace_prefix)

    def start(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: Optional[str],
        **args: Any,
    ) -> SpanRecord:
        """Open a span. ``parent_id`` is required (pass None only for
        tree roots) — lint rule OBS003 enforces that call sites thread
        the ambient context instead of silently orphaning spans."""
        # Positional construction (field order matters): a 10-kwarg
        # call costs ~3x a positional one, per span, on the traced
        # request path. ``args`` needs no copy — **args is fresh.
        span = SpanRecord(
            trace_id, self._next_id("s"), parent_id, name,
            self._clock_ns(), None, "open", self.process, self.pid, args,
        )
        self._open[span.span_id] = span
        return span

    def finish(self, span: SpanRecord, status: str = "ok", **args: Any) -> SpanRecord:
        """Close *span* with *status*; idempotent for already-closed spans."""
        if span.span_id in self._open:
            del self._open[span.span_id]
            span.end_ns = self._clock_ns()
            span.status = status
            if args:
                span.args.update(args)
            self._append(span)
        return span

    def add_complete(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: Optional[str],
        start_ns: int,
        end_ns: Optional[int] = None,
        status: str = "ok",
        **args: Any,
    ) -> SpanRecord:
        """Record an already-measured span (start captured earlier)."""
        # Positional construction — see start() for why.
        span = SpanRecord(
            trace_id, self._next_id("s"), parent_id, name, start_ns,
            self._clock_ns() if end_ns is None else end_ns,
            status, self.process, self.pid, args,
        )
        self._append(span)
        return span

    def abort_open(self, reason: str = "aborted") -> int:
        """Force-close every open span with ``aborted`` status.

        Called on service shutdown and after shard crashes so no span
        ever reaches an export without an end timestamp."""
        aborted = 0
        for span_id in list(self._open):
            span = self._open.pop(span_id)
            span.end_ns = self._clock_ns()
            span.status = "aborted"
            span.args.setdefault("abort_reason", reason)
            self._append(span)
            aborted += 1
        return aborted

    def absorb(self, records: Optional[Iterable[Dict[str, Any]]]) -> int:
        """Adopt spans recorded in another process (pool workers)."""
        absorbed = 0
        for record in records or ():
            self._append(span_from_dict(record))
            absorbed += 1
        return absorbed

    def drain(self) -> List[Dict[str, Any]]:
        """Return every *closed* span as dicts and reset the buffer."""
        live = self._spans[self._head :]
        spans = [span.as_dict() for span in live]
        self._dropped += len(live)
        self._spans = []
        self._head = 0
        return spans

    def snapshot(
        self, trace_id: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Non-draining view of closed spans (the ``trace`` protocol op)."""
        spans = self._spans[self._head :] if self._head else self._spans
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return [span.as_dict() for span in spans]


def _span_sort_key(record: Dict[str, Any]) -> Tuple:
    return (
        str(record.get("trace_id", "")),
        int(record.get("start_ns", 0)),
        str(record.get("span_id", "")),
    )


def merge_span_snapshots(
    snapshots: Iterable[Sequence[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Merge per-shard/per-worker span snapshots order-independently.

    Duplicates (a worker span absorbed by the service *and* still in a
    shard snapshot) collapse on ``(trace_id, span_id, process, pid)``;
    the result is sorted so any arrival order of the inputs yields the
    same list — the same contract :func:`repro.obs.metrics.merge_snapshots`
    gives metric snapshots.
    """
    merged: Dict[Tuple, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for record in snapshot or ():
            key = (
                str(record.get("trace_id", "")),
                str(record.get("span_id", "")),
                str(record.get("process", "")),
                int(record.get("pid", 0)),
            )
            merged[key] = dict(record)
    return sorted(merged.values(), key=_span_sort_key)


def _intervals_union_ns(intervals: List[Tuple[int, int]]) -> int:
    """Total length of the union of half-open integer intervals."""
    if not intervals:
        return 0
    intervals.sort()
    total = 0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    total += cur_end - cur_start
    return total


def _fold_intervals(
    wall_ns: int, intervals: List[Tuple[int, int, str]]
) -> Dict[str, int]:
    """Fold clipped ``(start, end, name)`` intervals into a stack
    (see :func:`fold_latency_stack_records`)."""
    intervals.sort()
    totals: Dict[str, int] = {}
    disjoint = True
    prev_end = -1
    for start, end, name in intervals:
        if start < prev_end:
            disjoint = False
        if end > prev_end:
            prev_end = end
        if name in totals:
            totals[name] += end - start
        else:
            totals[name] = end - start
    if disjoint:
        # The common sequential request (a warm hit is pure
        # cache_tier0 + serialize): nothing overlaps, so every union
        # is a plain sum and the shave pass below is provably a no-op.
        explained = 0
        for ns in totals.values():
            explained += ns
        totals["queue_wait"] = wall_ns - explained
        return {n: totals[n] for n in STACK_COMPONENTS if n in totals}
    by_name: Dict[str, List[Tuple[int, int]]] = {}
    all_intervals: List[Tuple[int, int]] = []
    for start, end, name in intervals:
        by_name.setdefault(name, []).append((start, end))
        all_intervals.append((start, end))
    stack: Dict[str, int] = {}
    for name in STACK_COMPONENTS:
        if name == "queue_wait":
            continue
        spans = by_name.get(name)
        if spans:
            stack[name] = _intervals_union_ns(spans)
    explained = _intervals_union_ns(all_intervals)
    stack["queue_wait"] = wall_ns - explained
    overlap = sum(stack.values()) - wall_ns
    if overlap > 0:
        # Components of *different* names can overlap in time — a
        # coalesce_wait brackets the leader's pool_execute, and a sweep
        # runs its points concurrently. Charge the overlap to the
        # waiting-side components first (they describe idle time, the
        # busy components describe work) so the sum-to-wall identity
        # stays an exact integer equality.
        for name in (
            "queue_wait",
            "coalesce_wait",
            "serialize",
            "store_put",
            "cache_backend",
            "cache_tier0",
            "pool_execute",
        ):
            if overlap <= 0:
                break
            if name in stack:
                shaved = min(stack[name], overlap)
                stack[name] -= shaved
                overlap -= shaved
    return {name: stack[name] for name in STACK_COMPONENTS if name in stack}


def fold_latency_stack_records(
    root: SpanRecord, records: Sequence[SpanRecord]
) -> Dict[str, int]:
    """Fold a request's span tree into its latency stack (int ns).

    Components are the spans structurally owned by the request: direct
    children of *root* plus same-trace ``coalesce_wait`` spans (those
    parent to the *leader's* pool_execute span, crossing the coalescing
    boundary on purpose).  Worker-internal spans are grandchildren and
    excluded, so nothing is double-counted.  Per component the clipped
    interval *union* is charged (sweep fan-out overlaps); the residue
    is ``queue_wait``, which makes ``sum(stack.values()) == wall_ns``
    an exact integer identity.

    The serve hot path folds live :class:`SpanRecord` objects straight
    out of :meth:`SpanCollector.since_records`, with no per-span dict
    conversion: that is worth several microseconds per traced request,
    which the enabled-overhead benchmark budget notices.
    """
    root_start = root.start_ns
    root_end = root.end_ns if root.end_ns is not None else root_start
    wall_ns = root_end - root_start
    if wall_ns < 0:
        wall_ns = 0
    root_id = root.span_id
    trace_id = root.trace_id

    intervals: List[Tuple[int, int, str]] = []
    for record in records:
        if record.trace_id != trace_id:
            continue
        name = record.name
        if name not in STACK_COMPONENTS:
            continue
        if record.parent_id != root_id and name != "coalesce_wait":
            continue
        end = record.end_ns
        if end is None:
            continue
        start = record.start_ns
        if start < root_start:
            start = root_start
        if end > root_end:
            end = root_end
        if end > start:
            intervals.append((start, end, name))
    return _fold_intervals(wall_ns, intervals)


def collapse_stacks(spans: Sequence[Dict[str, Any]]) -> List[str]:
    """Fold spans into collapsed-stack ("flame") lines: ``a;b;c <ns>``.

    Each span contributes its *self time* (duration minus closed
    children, clamped at zero) to the frame path from its tree root.
    Lines aggregate identical paths and sort lexically, so the output
    is deterministic regardless of span order.
    """
    by_id: Dict[str, Dict[str, Any]] = {}
    children: Dict[str, List[Dict[str, Any]]] = {}
    for record in spans:
        if record.get("end_ns") is None:
            continue
        by_id[str(record["span_id"])] = record
        parent = record.get("parent_id")
        if parent is not None:
            children.setdefault(str(parent), []).append(record)

    def path_of(record: Dict[str, Any]) -> str:
        frames: List[str] = []
        seen = set()
        node: Optional[Dict[str, Any]] = record
        while node is not None:
            span_id = str(node["span_id"])
            if span_id in seen:
                break
            seen.add(span_id)
            frames.append(str(node["name"]))
            parent = node.get("parent_id")
            node = by_id.get(str(parent)) if parent is not None else None
        return ";".join(reversed(frames))

    totals: Dict[str, int] = {}
    for span_id, record in by_id.items():
        duration = max(0, int(record["end_ns"]) - int(record["start_ns"]))
        child_time = sum(
            max(0, int(c["end_ns"]) - int(c["start_ns"]))
            for c in children.get(span_id, ())
        )
        self_ns = max(0, duration - child_time)
        if self_ns <= 0:
            continue
        path = path_of(record)
        totals[path] = totals.get(path, 0) + self_ns
    return [f"{path} {value}" for path, value in sorted(totals.items())]


__all__ = [
    "SPAN_STATUSES",
    "STACK_COMPONENTS",
    "SpanCollector",
    "SpanRecord",
    "collapse_stacks",
    "fold_latency_stack_records",
    "merge_span_snapshots",
    "span_from_dict",
]
