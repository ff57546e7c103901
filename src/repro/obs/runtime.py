"""Ambient activation for the observability pillars.

Mirrors the sanitizer's ambient-state pattern
(:mod:`repro.analysis.sanitizer`): each pillar — tracing and metrics
— has a forced flag (set by CLI switches / tests) that wins over an
environment variable (``REPRO_TRACE`` / ``REPRO_METRICS``, inherited
by lab worker processes).

Instrumented code calls ``current_tracer()`` / ``current_metrics()``
and branches on ``None``. The detailed cores call none of them: a
finished run is reported once, from its result
(:func:`repro.pipeline.result.observe_run`), so a disabled pillar
costs one environment lookup per simulated config — well inside the
<3% overhead budget guarded by ``benchmarks/bench_obs_overhead.py``.

``drain_*`` returns the collected data and opens a fresh window; the
lab's ``execute_job`` drains per job so worker snapshots stay separate
until :func:`repro.obs.metrics.merge_snapshots` folds them together.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from repro.obs import context as obs_context
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer

ENV_TRACE = "REPRO_TRACE"
ENV_METRICS = "REPRO_METRICS"
#: Optional directory where lab workers write per-job JSONL traces.
ENV_TRACE_DIR = "REPRO_TRACE_DIR"

_TRACE = "trace"
_METRICS = "metrics"

_ENV_BY_PILLAR = {_TRACE: ENV_TRACE, _METRICS: ENV_METRICS}

_forced: Dict[str, Optional[bool]] = {_TRACE: None, _METRICS: None}

_ambient_tracer: Optional[RecordingTracer] = None
_ambient_metrics: Optional[MetricsRegistry] = None
#: The registry ``metrics_resolved`` fixed for its block, boxed so a
#: resolved None (metrics off) differs from "not resolved".
_resolved_metrics: Optional[Tuple[Optional[MetricsRegistry]]] = None


def _enabled(pillar: str) -> bool:
    forced = _forced[pillar]
    if forced is not None:
        return forced
    raw = os.environ.get(_ENV_BY_PILLAR[pillar], "").strip()
    return raw not in ("", "0", "false", "no")


def _enable(pillar: str) -> None:
    _forced[pillar] = True
    os.environ[_ENV_BY_PILLAR[pillar]] = "1"


def tracing_enabled() -> bool:
    return _enabled(_TRACE)


def metrics_enabled() -> bool:
    return _enabled(_METRICS)


def enable_tracing() -> None:
    """Force-enable tracing and export it to child worker processes."""
    _enable(_TRACE)


def enable_metrics() -> None:
    _enable(_METRICS)


def reset() -> None:
    """Drop forced flags, ambient collectors, and the env switches.

    Tests call this (directly or via the autouse fixture) so one test's
    tracing session cannot leak into the next.
    """
    global _ambient_tracer, _ambient_metrics
    for pillar in _forced:
        _forced[pillar] = None
        os.environ.pop(_ENV_BY_PILLAR[pillar], None)
    os.environ.pop(ENV_TRACE_DIR, None)
    obs_context.clear_env()
    _ambient_tracer = None
    _ambient_metrics = None


def current_tracer() -> Optional[RecordingTracer]:
    """The ambient tracer, or None when tracing is inactive."""
    global _ambient_tracer
    if not _enabled(_TRACE):
        return None
    if _ambient_tracer is None:
        _ambient_tracer = RecordingTracer()
    return _ambient_tracer


def current_metrics() -> Optional[MetricsRegistry]:
    """The ambient metrics registry, or None when metrics are inactive."""
    global _ambient_metrics
    if _resolved_metrics is not None:
        return _resolved_metrics[0]
    if not _enabled(_METRICS):
        return None
    if _ambient_metrics is None:
        _ambient_metrics = MetricsRegistry()
    return _ambient_metrics


@contextmanager
def metrics_resolved() -> Iterator[None]:
    """Resolve the ambient registry once for the block.

    Inside the block ``current_metrics()`` returns the registry (or
    None) resolved on entry without reading the environment again. An
    annotation pass, whose predictor and cache substrates count every
    access, wraps its record walk in this.
    """
    global _resolved_metrics
    outer = _resolved_metrics
    _resolved_metrics = (current_metrics(),)
    try:
        yield
    finally:
        _resolved_metrics = outer


def drain_trace() -> Optional[RecordingTracer]:
    """Return the ambient tracer (with its buffers) and start fresh."""
    global _ambient_tracer
    tracer = _ambient_tracer
    _ambient_tracer = None
    if tracer is None or len(tracer) == 0:
        return None
    return tracer


def drain_metrics() -> Optional[dict]:
    """Return a snapshot of the ambient registry and start fresh."""
    global _ambient_metrics
    registry = _ambient_metrics
    _ambient_metrics = None
    if registry is None:
        return None
    snapshot = registry.snapshot()
    if not any(snapshot.values()):
        return None
    return snapshot


def trace_dir() -> Optional[str]:
    """Directory for per-job JSONL traces (lab workers), if configured."""
    raw = os.environ.get(ENV_TRACE_DIR, "").strip()
    return raw or None
