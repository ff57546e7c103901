"""In-memory spans, the self-time fold and Chrome-trace export.

A span is (name, start, end, parent, op id). Spans are kept in memory
while a workload runs and written once at exit. A span's *self time* is
its duration minus the part of it its children cover, so the self times
of a tree partition its root: summed over every span they equal the
root's duration, which is the check the traced run makes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = -1
    parent: int = -1  # index of the parent span, -1 for a root
    op_id: str = ""  # the experiment or request the span belongs to
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Records nested spans on one thread."""

    def __init__(self, clock_ns: Callable[[], int] = time.perf_counter_ns):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._clock_ns = clock_ns

    def begin(self, name: str, op_id: str = "", **args: Any) -> int:
        parent = self._open[-1] if self._open else -1
        if not op_id and parent >= 0:
            op_id = self.spans[parent].op_id
        self.spans.append(Span(name, self._clock_ns(), parent=parent,
                               op_id=op_id, args=args))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, **args: Any) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._open.pop()
        span = self.spans[index]
        span.end_ns = self._clock_ns()
        span.args.update(args)

    @contextmanager
    def span(self, name: str, op_id: str = "", **args: Any) -> Iterator[int]:
        index = self.begin(name, op_id, **args)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call; ``on_result``
        sees each return value (for counts taken at the same boundary)."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper


def _covered_ns(span: Span, children: Iterable[Span]) -> int:
    """Length of the union of ``children`` clipped to ``span``."""
    intervals = sorted(
        (max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns))
        for c in children
    )
    covered = 0
    cursor = span.start_ns
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def fold_self_ns(spans: List[Span]) -> Dict[str, int]:
    """Self time per span name, in nanoseconds."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    totals: Dict[str, int] = defaultdict(int)
    for index, span in enumerate(spans):
        totals[span.name] += span.duration_ns - _covered_ns(
            span, children.get(index, ())
        )
    return dict(totals)


def spans_to_json(spans: List[Span]) -> List[Dict[str, Any]]:
    return [asdict(span) for span in spans]


def spans_from_json(records: List[Dict[str, Any]]) -> List[Span]:
    return [Span(**record) for record in records]


def chrome_events(
    spans: List[Span], pid: int, tid: int, base_ns: int
) -> List[Dict[str, Any]]:
    """Complete ("X") Chrome-trace events, timestamps in microseconds
    from ``base_ns``."""
    return [
        {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.start_ns - base_ns) / 1000.0,
            "dur": span.duration_ns / 1000.0,
            "pid": pid,
            "tid": tid,
            "args": {"op": span.op_id, **span.args},
        }
        for span in spans
    ]


def write_chrome_trace(path: Path, events: List[Dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
        encoding="utf-8",
    )
