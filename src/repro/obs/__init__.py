"""repro.obs — zero-cost-when-disabled observability.

Two time axes, one span shape each:

* :mod:`repro.obs.tracer` — *simulated* time: per-miss-event spans and
  interval-boundary instants, exportable to Perfetto (Chrome trace
  JSON) and JSONL.
* :mod:`repro.obs.spans` — *wall* time: integer-nanosecond span trees
  whose fold sums exactly to wall time. Serve requests fold them into
  latency stacks, ``repro profile`` and ``repro obs flame`` into
  collapsed stacks.

Beside them, :mod:`repro.obs.metrics` keeps named
counters/gauges/histograms whose snapshots merge across lab pool
workers into run manifests.

Tracing and metrics are off by default. Activation is ambient
(:mod:`repro.obs.runtime`): CLI flags or the ``REPRO_TRACE`` /
``REPRO_METRICS`` environment variables, which lab worker processes
inherit. See ``docs/observability.md`` for the trace schema and naming
conventions.
"""

from __future__ import annotations

from repro.obs.context import (
    ENV_TRACE_CONTEXT,
    TraceContext,
    current_collector,
    current_context,
)
from repro.obs.metrics import (
    DEFAULT_EDGES,
    METRIC_NAME_PATTERN,
    METRIC_NAME_RE,
    Counter,
    FixedHistogram,
    Gauge,
    MetricNameError,
    MetricsRegistry,
    histogram_quantile,
    histogram_quantiles,
    merge_snapshots,
    render_snapshot,
    validate_metric_name,
)
from repro.obs.spans import (
    SPAN_STATUSES,
    STACK_COMPONENTS,
    SpanCollector,
    SpanRecord,
    collapse_stacks,
    fold_latency_stack_records,
    merge_span_snapshots,
    span_from_dict,
)
from repro.obs.tracer import (
    KIND_BPRED,
    KIND_ICACHE,
    KIND_LONG_DMISS,
    SPAN_KINDS,
    InstantEvent,
    MissSpan,
    RecordingTracer,
    Tracer,
)

__all__ = [
    "DEFAULT_EDGES",
    "ENV_TRACE_CONTEXT",
    "SPAN_STATUSES",
    "STACK_COMPONENTS",
    "SpanCollector",
    "SpanRecord",
    "TraceContext",
    "collapse_stacks",
    "current_collector",
    "current_context",
    "fold_latency_stack_records",
    "histogram_quantile",
    "histogram_quantiles",
    "merge_span_snapshots",
    "span_from_dict",
    "METRIC_NAME_PATTERN",
    "METRIC_NAME_RE",
    "Counter",
    "FixedHistogram",
    "Gauge",
    "MetricNameError",
    "MetricsRegistry",
    "merge_snapshots",
    "render_snapshot",
    "validate_metric_name",
    "KIND_BPRED",
    "KIND_ICACHE",
    "KIND_LONG_DMISS",
    "SPAN_KINDS",
    "InstantEvent",
    "MissSpan",
    "RecordingTracer",
    "Tracer",
]
