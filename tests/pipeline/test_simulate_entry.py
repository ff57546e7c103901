"""``simulate`` runs the SoA kernel, and a run reports from its result.

Traced, metered and plain runs take the same core; the spans and the
``core.*`` metrics are read from the finished ``SimulationResult``, so
they are the same whichever core produced it. The scalar
``SuperscalarCore`` stays the oracle and the core for sanitized runs.
"""

from __future__ import annotations

import pytest

from repro.analysis import sanitizer
from repro.lab.codec import (
    decode_payload,
    encode_payload,
    result_from_payload,
    result_to_payload,
)
from repro.obs import runtime
from repro.obs.tracer import KIND_BPRED
from repro.perf import batchcore
from repro.pipeline import core as core_module
from repro.pipeline.annotate import OracleAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import SuperscalarCore, simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.synthetic import generate_trace
from repro.util.rng import derive_seed
from repro.workloads.spec_profiles import SPEC_PROFILES

LENGTH = 1_500


def _trace(name, length=LENGTH):
    return generate_trace(
        SPEC_PROFILES[name], length, seed=derive_seed(2006, name)
    )


def _observed(run):
    """``run()`` under tracing and metrics: (result, spans, snapshot)."""
    runtime.reset()
    runtime.enable_tracing()
    runtime.enable_metrics()
    try:
        result = run()
        tracer = runtime.drain_trace()
        snapshot = runtime.drain_metrics()
    finally:
        runtime.reset()
    return result, (tracer.spans if tracer is not None else []), snapshot


@pytest.fixture
def no_sanitizer(monkeypatch):
    monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
    sanitizer.reset()
    yield
    sanitizer.reset()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts runs of the SoA kernel."""
    calls = []
    kernel = batchcore._simulate_columns

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(batchcore, "_simulate_columns", counting)
    return calls


@pytest.mark.parametrize("name", sorted(SPEC_PROFILES))
def test_traced_kernel_run_equals_the_scalar_run(name, no_sanitizer):
    trace = _trace(name)
    config = CoreConfig()
    kernel, kernel_spans, kernel_metrics = _observed(
        lambda: simulate(trace, config)
    )
    # An explicit annotator keeps the run on the scalar core.
    scalar, scalar_spans, scalar_metrics = _observed(
        lambda: simulate(trace, config, annotator=OracleAnnotator(config))
    )
    assert vars(kernel) == vars(SuperscalarCore(config).run(trace))
    assert vars(kernel) == vars(scalar)
    assert kernel_spans == scalar_spans == kernel.miss_spans()
    assert len(kernel_spans) == len(kernel.events)
    assert kernel_metrics == scalar_metrics
    assert kernel_metrics["counters"]["core.cycles_total"] == kernel.cycles


def test_traced_metered_run_stays_on_the_columns(no_sanitizer, kernel_calls):
    trace = _trace("gzip")
    assert trace._records is None
    result, spans, snapshot = _observed(lambda: simulate(trace, CoreConfig()))
    assert trace._records is None, "a traced run built the record view"
    assert kernel_calls == [1]
    assert spans and snapshot is not None
    assert len(spans) == len(result.events)


def test_sanitized_run_takes_the_scalar_core(monkeypatch, kernel_calls):
    trace = _trace("mcf")
    monkeypatch.setenv(sanitizer.ENV_VAR, "1")
    sanitizer.reset()
    try:
        result = simulate(trace, CoreConfig())
        report = sanitizer.drain_report()
    finally:
        monkeypatch.delenv(sanitizer.ENV_VAR)
        sanitizer.reset()
    assert kernel_calls == []
    assert report is not None and report.checks_run > 0
    assert not report.violations
    assert vars(result) == vars(SuperscalarCore(CoreConfig()).run(trace))


def test_public_entries_do_not_call_each_other(monkeypatch, no_sanitizer):
    """Each public core name is its own layer for callers that wrap them."""
    trace = _trace("eon", length=400)

    def refuse(*args, **kwargs):
        raise AssertionError("one public core entry called another")

    monkeypatch.setattr(batchcore, "run_batch", refuse)
    simulate(trace, CoreConfig())
    monkeypatch.undo()
    monkeypatch.setattr(core_module, "simulate", refuse)
    batchcore.run_batch(trace, [CoreConfig()])
    simulate_inorder(trace, CoreConfig())


class TestWrongPathSpans:
    CONFIG = CoreConfig(dispatch_wrong_path=True)

    def test_ghost_spans_carry_wrong_path_counts(self):
        trace = _trace("gcc")
        result, spans, snapshot = _observed(
            lambda: simulate(trace, self.CONFIG)
        )
        counts = [s.wrong_path_instructions for s in spans if s.kind == KIND_BPRED]
        assert counts and any(counts)
        assert spans == result.miss_spans()
        assert snapshot["counters"]["core.wrongpath_squashed_total"] > 0

    def test_wrong_path_counts_survive_the_codec(self):
        trace = _trace("gcc")
        result = simulate(trace, self.CONFIG)
        payload, _ = decode_payload(encode_payload(result_to_payload(result)))
        decoded = result_from_payload(payload)
        assert vars(decoded) == vars(result)
        assert decoded.miss_spans() == result.miss_spans()
        assert any(e.wrong_path_instructions for e in decoded.mispredict_events)

    def test_other_runs_store_no_wrong_path_field(self):
        payload = result_to_payload(simulate(_trace("gcc"), CoreConfig()))
        assert payload["events"]
        assert all("wrong_path_instructions" not in e for e in payload["events"])


def _histogram(counts, total, vmin, vmax):
    return {
        "edges": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        "counts": counts,
        "count": sum(counts),
        "sum": total,
        "min": vmin,
        "max": vmax,
    }


def test_inorder_metrics_keep_their_names_and_values():
    """The in-order core's snapshot, as its in-loop hooks recorded it."""
    trace = generate_trace(SPEC_PROFILES["gzip"], 3_000, seed=2006)
    _, spans, snapshot = _observed(lambda: simulate_inorder(trace, CoreConfig()))
    assert snapshot == {
        "counters": {
            "core.cycles_total": 2278,
            "core.icache_misses_total": 1,
            "core.instructions_total": 3000,
            "core.long_dmisses_total": 0,
            "core.mispredicts_total": 18,
        },
        "gauges": {},
        "histograms": {
            "core.penalty_cycles": _histogram(
                [0, 0, 0, 18, 0, 0, 0, 0, 0, 0, 0, 0], 115, 6, 7
            ),
            "core.resolution_cycles": _histogram(
                [11, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 25, 1, 2
            ),
        },
    }
    assert len(spans) == 19
    assert sum(span.duration for span in spans) == 125


def test_empty_run_reports_nothing():
    from repro.trace.stream import Trace

    _, spans, snapshot = _observed(lambda: simulate(Trace(), CoreConfig()))
    assert spans == [] and snapshot is None
