"""Overhead guard for the observability hooks.

Two properties protect the simulator's throughput:

* **Disabled is (nearly) free.** The detailed cores carry no hooks; a
  finished run is reported once, by
  :func:`repro.pipeline.result.observe_run`, which with tracing and
  metrics off is two ambient lookups. We time exactly that call (median
  of many) and assert it fits inside the 3% budget of the simulation
  itself — a bound that does not depend on comparing two noisy
  end-to-end timings.
* **Enabled stays proportionate.** With tracing + metrics on, the extra
  work is per miss event (sparse), not per cycle; the end-to-end ratio
  against a disabled run must stay under a generous bound.

The serve plane gets the same two guards: with request tracing off the
per-request additions (two telemetry samples plus the tracing check)
must fit a 3% budget of a warm round trip, and with tracing fully on
the per-request additions (span records, ambient context, the
latency-stack fold, histogram recording) must fit an 8% budget.
"""

from __future__ import annotations

import asyncio
import statistics

from repro.obs import runtime as obs_runtime
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.result import observe_run
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from repro.util.timing import default_clock

N = 20_000
ROUNDS = 5
DISABLED_BUDGET = 0.03
ENABLED_BOUND = 1.5

#: Disabled ``observe_run`` calls timed per sample; one call is far
#: below the clock's useful resolution.
OBSERVE_CALLS = 1_000


def _median_sim_seconds(trace, config) -> float:
    times = []
    for _ in range(ROUNDS):
        start = default_clock()
        simulate(trace, config)
        times.append(default_clock() - start)
    return statistics.median(times)


def test_disabled_hooks_fit_the_three_percent_budget(capsys):
    obs_runtime.reset()
    trace = generate_trace(WorkloadProfile(name="overhead"), N, seed=41)
    config = CoreConfig()
    result = simulate(trace, config)
    sim_seconds = _median_sim_seconds(trace, config)

    samples = []
    for _ in range(ROUNDS):
        start = default_clock()
        for _ in range(OBSERVE_CALLS):
            observe_run(result)
        samples.append((default_clock() - start) / OBSERVE_CALLS)
    observe_seconds = statistics.median(samples)

    ratio = observe_seconds / sim_seconds
    with capsys.disabled():
        print(
            f"\n[obs overhead] disabled observe_run: "
            f"{observe_seconds * 1e6:.2f} us vs {sim_seconds * 1e3:.1f} ms "
            f"simulate = {ratio:.4%} (budget {DISABLED_BUDGET:.0%})"
        )
    assert ratio < DISABLED_BUDGET


def test_enabled_tracing_cost_stays_proportionate(capsys):
    trace = generate_trace(WorkloadProfile(name="overhead"), N, seed=41)
    config = CoreConfig()

    obs_runtime.reset()
    disabled = _median_sim_seconds(trace, config)

    obs_runtime.enable_tracing()
    obs_runtime.enable_metrics()
    try:
        enabled = _median_sim_seconds(trace, config)
    finally:
        obs_runtime.reset()

    ratio = enabled / disabled
    with capsys.disabled():
        print(
            f"\n[obs overhead] tracing+metrics on: {enabled * 1e3:.1f} ms vs "
            f"{disabled * 1e3:.1f} ms off = {ratio:.2f}x "
            f"(bound {ENABLED_BOUND}x)"
        )
    assert ratio < ENABLED_BOUND

# -- serve round-trip guards --------------------------------------------

SERVE_REQUEST = {"op": "simulate", "workload": "gzip", "length": 1500}
SERVE_BATCH = 200
SERVE_ROUNDS = 7
#: The traced-path replay is microseconds per call, so a much larger
#: batch is affordable and gives the min() a far steadier floor.
SERVE_ADDITIONS_BATCH = 1000
SERVE_DISABLED_BUDGET = 0.03
SERVE_ENABLED_BUDGET = 0.08


def _min_interleaved_ratio(svc, additions_batch_seconds):
    """Best per-round ratio of traced-path additions to a warm round trip.

    The two quantities must be measured *back-to-back inside the same
    round*: this box drifts between a fast and a slow regime (the same
    tight loop measures 3us in one phase and 11us minutes later), so
    timing all round trips first and all additions second lets a regime
    flip land between the phases and skew the ratio either way. Pairing
    them per round makes the drift hit both sides of the division, and
    the min over rounds picks the cleanest pairing.
    """
    best = None
    for _ in range(SERVE_ROUNDS):
        round_trip = _batch_seconds(svc) / SERVE_BATCH
        additions = additions_batch_seconds() / SERVE_ADDITIONS_BATCH
        ratio = additions / round_trip
        if best is None or ratio < best[0]:
            best = (ratio, additions, round_trip)
    return best


def _warm_service(root, trace_requests):
    from repro.serve.service import ExperimentService

    svc = ExperimentService(
        store_root=root, n_shards=1, trace_requests=trace_requests
    )
    svc.start()
    warm = asyncio.run(svc.handle(dict(SERVE_REQUEST)))
    assert warm["ok"]
    return svc


def _batch_seconds(svc) -> float:
    async def batch():
        for _ in range(SERVE_BATCH):
            response = await svc.handle(dict(SERVE_REQUEST))
            assert response["ok"]

    start = default_clock()
    asyncio.run(batch())
    return default_clock() - start


def test_serve_disabled_tracing_guard_fits_budget(tmp_path, capsys):
    """The untraced request path adds only the telemetry samples and
    the tracing check; time exactly those additions against a warm
    round trip — a bound that does not race two noisy end-to-end runs."""
    svc = _warm_service(tmp_path / "cache", trace_requests=False)
    try:

        def additions_batch_seconds():
            start = default_clock()
            for _ in range(SERVE_ADDITIONS_BATCH):
                svc._sample_queues()
                svc._sample_queues()
                svc._tracing_on()
            return default_clock() - start

        ratio, guard_seconds, round_trip = _min_interleaved_ratio(
            svc, additions_batch_seconds
        )
    finally:
        svc.close()
    with capsys.disabled():
        print(
            f"\n[serve overhead] disabled-path additions: "
            f"{guard_seconds * 1e6:.2f} us vs {round_trip * 1e6:.1f} us "
            f"warm round trip = {ratio:.2%} "
            f"(budget {SERVE_DISABLED_BUDGET:.0%})"
        )
    assert ratio < SERVE_DISABLED_BUDGET


def test_serve_enabled_tracing_round_trip_bound(tmp_path, capsys):
    """The per-request cost of full tracing fits an 8% budget of a
    warm round trip.

    Racing a traced service against an untraced one is hopeless here:
    on a loaded CI box the run-to-run spread of the round trip itself
    dwarfs a single-digit-percent bound (the same interleaved A/B
    comparison measured anywhere from 1.0x to 1.5x on *identical*
    code). So — exactly like the disabled guard above — time the
    *additions* directly: replay every operation the traced path
    layers onto a warm tier-0 hit (trace adoption, the root span, the
    cache-probe and serialize spans, ambient context, the latency-
    stack fold, histogram recording, response meta) and hold their sum
    against the measured round trip."""
    from repro.obs import context as obs_context
    from repro.obs.spans import fold_latency_stack_records
    from repro.serve import protocol

    svc = _warm_service(tmp_path / "cache", trace_requests=False)
    try:
        collector = svc.spans

        meta = {"key": "k", "source": "tier0", "coalesced": False}

        def traced_additions_once():
            # Mirrors ExperimentService.handle with tracing on, minus
            # everything an untraced request already pays for (the
            # current_collector probe in cache.lookup and the base
            # response meta exist on both sides, so neither is timed
            # as an addition here).
            protocol.trace_fields(SERVE_REQUEST)
            trace_id = collector.new_trace_id()
            mark = collector.mark()
            root = collector.start(
                "request", trace_id=trace_id, parent_id=None, op="simulate"
            )
            token = obs_context.activate(
                obs_context.TraceContext(trace_id, root.span_id), collector
            )
            # Tier-0 probe span — the traced branch of cache.lookup.
            ctx = obs_context.current_context()
            t0 = collector.now()
            collector.add_complete(
                "cache_tier0", trace_id=ctx.trace_id,
                parent_id=ctx.span_id, start_ns=t0,
                hit=True, key="0123456789ab",
            )
            # Serialize span — the traced tail of _simulate.
            ctx = obs_context.current_context()
            t0 = collector.now()
            collector.add_complete(
                "serialize", trace_id=ctx.trace_id,
                parent_id=ctx.span_id, start_ns=t0,
            )
            obs_context.deactivate(token)
            collector.finish(root, status="ok")
            stack = fold_latency_stack_records(
                root, collector.since_records(mark)
            )
            svc._record_stack(stack)
            meta["trace_id"] = root.trace_id
            meta["span_id"] = root.span_id
            meta["wall_ns"] = root.duration_ns
            meta["latency_stack_ns"] = stack

        def additions_batch_seconds():
            start = default_clock()
            for _ in range(SERVE_ADDITIONS_BATCH):
                traced_additions_once()
            return default_clock() - start

        ratio, additions, round_trip = _min_interleaved_ratio(
            svc, additions_batch_seconds
        )
    finally:
        svc.close()
    with capsys.disabled():
        print(
            f"\n[serve overhead] enabled-tracing additions: "
            f"{additions * 1e6:.2f} us vs {round_trip * 1e6:.1f} us "
            f"warm round trip = {ratio:.2%} "
            f"(budget {SERVE_ENABLED_BUDGET:.0%})"
        )
    assert ratio < SERVE_ENABLED_BUDGET
