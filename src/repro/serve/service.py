"""The asyncio front door: coalescing, cache tiers, shard dispatch.

:class:`ExperimentService` is the transport-independent core — its
:meth:`~ExperimentService.handle` coroutine maps one request dict to
one response dict, and the TCP layer (:class:`ServeServer`) is a thin
JSON-lines adapter over it. Tests drive ``handle`` directly with
``asyncio.gather``; the CLI and the client helper go through TCP.

Request path for ``simulate``:

1. validate → :class:`repro.lab.jobs.SimJob` → content address;
2. **singleflight**: if that key is already being computed, await the
   leader's future (``serve.coalesced_total``) — registration happens
   synchronously before the leader's first ``await``, so N identical
   requests arriving in one scheduling window always collapse to one
   computation, deterministically;
3. **tiered cache** (:class:`repro.serve.cache.TieredCache`): tier-0
   LRU, then the verified store — a warm request never touches a shard
   (``serve.cache_hits_<tier>_total``);
4. **shard dispatch**: route by content address, journal write-ahead,
   execute on the shard's worker (``serve.pool_executions_total``),
   which also persists the result to the store. If
   the shard's worker dies mid-job (``BrokenProcessPool``), the shard
   is restarted and the journal consulted: completed-before-death work
   is replayed from the store, in-flight work is resubmitted once, and
   a second crash surfaces as a *retryable* ``shard-crashed`` error —
   waiters always get an answer or that error, never a hang.

Every counter lives in a service-owned
:class:`repro.obs.metrics.MetricsRegistry`; ``status`` responses carry
the live snapshot and :meth:`write_manifest` persists it next to the
lab's run manifests so ``repro obs metrics`` tooling can read it.
"""

from __future__ import annotations

import asyncio
import os
import threading
import uuid
from collections import deque
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import __version__
from repro.lab.jobs import JobResult, JobStatus, SimJob
from repro.lab.store import ResultStore
from repro.obs import context as obs_context
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry, histogram_quantiles
from repro.obs.spans import (
    STACK_COMPONENTS,
    SpanCollector,
    fold_latency_stack_records,
    merge_span_snapshots,
)
from repro.resilience import deadline as deadlines
from repro.resilience.atomic import atomic_write_json
from repro.resilience.supervisor import WatchdogPolicy
from repro.serve import protocol
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    BrownoutController,
)
from repro.serve.cache import (
    DEFAULT_TIER0_BYTES,
    DEFAULT_TIER0_ITEMS,
    TIER_NAMES,
    TieredCache,
    json_sizeof,
)
from repro.serve.shards import ShardSet
from repro.util.lru import LRUCache
from repro.util.timing import Stopwatch, default_clock_ns

#: Where a running service advertises its address, under the store root.
ENDPOINT_FILE = "serve/endpoint.json"

#: Latency histogram edges in milliseconds (sub-ms cache hits up to
#: multi-second cold simulations).
LATENCY_EDGES_MS = (0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000,
                    2500, 5000, 10000)

#: Closed-span buffer bound for the service collector: old spans are
#: dropped FIFO so a long-running service cannot grow without bound.
SPAN_BUFFER_LIMIT = 20_000

#: Telemetry ring size: queue-depth/in-flight samples kept for the
#: ``stats`` op and the serve manifest.
TELEMETRY_SAMPLES = 256

#: Ops that are introspection, not traffic: they are never traced (a
#: ``trace`` query must not append spans to the tree it is reading).
UNTRACED_OPS = ("stats", "trace")


def endpoint_path(store_root: Union[str, Path]) -> Path:
    return Path(store_root) / ENDPOINT_FILE


class ExperimentService:
    """Coalescing, caching, sharded execution — behind one coroutine."""

    def __init__(
        self,
        store_root: Optional[Union[str, Path]] = None,
        n_shards: int = 2,
        tier0_items: int = DEFAULT_TIER0_ITEMS,
        tier0_bytes: Optional[int] = DEFAULT_TIER0_BYTES,
        service_id: Optional[str] = None,
        use_cache: bool = True,
        watchdog_policy: Optional[WatchdogPolicy] = None,
        trace_requests: Optional[bool] = None,
        span_clock: Optional[Callable[[], int]] = None,
        shard_workers: int = 1,
        admission_policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        self.store = (
            ResultStore(root=store_root) if store_root else ResultStore()
        )
        self.service_id = service_id or f"serve-{uuid.uuid4().hex[:10]}"
        self.use_cache = use_cache
        self.metrics = MetricsRegistry()
        self.cache = TieredCache(
            self.store,
            LRUCache(tier0_items, max_bytes=tier0_bytes, sizeof=json_sizeof),
        )
        self.shards = ShardSet(
            n_shards,
            self.service_id,
            str(self.store.root),
            self.store.runs_dir,
            self.store.root / "serve" / "heartbeats" / self.service_id,
            use_cache=use_cache,
            watchdog_policy=watchdog_policy,
            workers=shard_workers,
        )
        self.admission_policy = admission_policy or AdmissionPolicy()
        self.admission = AdmissionController(
            self.admission_policy, self.metrics, n_shards
        )
        self.brownout = BrownoutController(self.admission_policy, self.metrics)
        #: key -> (payload, source, exec_span_id) singleflight futures.
        self._inflight: Dict[
            str, "asyncio.Future[Tuple[dict, str, Optional[str]]]"
        ] = {}
        self._uptime = Stopwatch()
        self.shutdown_requested = asyncio.Event()
        #: None = follow the ambient REPRO_TRACE switch; True/False pin
        #: request tracing regardless (``repro serve run --trace``).
        self.trace_requests = trace_requests
        self.spans = SpanCollector(
            process="serve",
            clock_ns=span_clock or default_clock_ns,
            max_spans=SPAN_BUFFER_LIMIT,
        )
        #: Event-loop samples of queue depth / in-flight, kept in a ring
        #: for the ``stats`` op. Always on: appending one small dict at
        #: request milestones is inside the disabled-overhead budget.
        self._telemetry: "deque[Dict[str, Any]]" = deque(maxlen=TELEMETRY_SAMPLES)
        self._telemetry_seq = 0
        # Pre-register every counter so a fresh snapshot shows explicit
        # zeros (CI asserts on names, not just values).
        for name in (
            "serve.requests_total",
            "serve.coalesced_total",
            "serve.cache_misses_total",
            "serve.pool_executions_total",
            "serve.shard_restarts_total",
            "serve.errors_total",
            # Overload/deadline plane. The metric grammar allows one
            # dot, so the "serve.overload.*" family is spelled with
            # underscores: serve.overload_<noun>_total.
            "serve.overload_sheds_total",
            "serve.overload_shed_sweeps_total",
            "serve.overload_transitions_total",
            "serve.deadline_expired_total",
            "serve.deadline_dropped_total",
        ):
            self.metrics.counter(name)
        for tier in TIER_NAMES:
            self.metrics.counter(f"serve.cache_hits_{tier}_total")
        self.metrics.histogram(
            "serve.request_latency_milliseconds", edges=LATENCY_EDGES_MS
        )
        # Telemetry-plane metrics, registered with literal names so
        # OBS002's static check vets each one. (``serve.inflight`` as
        # named in planning would fail the subsystem.noun_unit pattern —
        # no unit suffix — hence ``serve.inflight_requests``.)
        # serve.queue_depth stays the lifetime high-watermark
        # (set_max); serve.queue_depth_current is the live sampled
        # depth the admission controller and `repro serve top` act on.
        self._queue_depth_gauge = self.metrics.gauge("serve.queue_depth")
        self._queue_depth_current_gauge = self.metrics.gauge(
            "serve.queue_depth_current"
        )
        self._inflight_gauge = self.metrics.gauge("serve.inflight_requests")
        self.metrics.gauge("serve.brownout_level")
        # Per-shard current-depth gauges; the f-string names follow
        # the same subsystem.noun_unit grammar the registry enforces
        # at runtime (e.g. serve.shard0_queue_depth).
        self._shard_depth_gauges = [
            self.metrics.gauge(f"serve.shard{i}_queue_depth")
            for i in range(n_shards)
        ]
        self._shard_depths_written: Optional[List[int]] = None
        self.metrics.histogram(
            "serve.simulate_latency_milliseconds", edges=LATENCY_EDGES_MS
        )
        self.metrics.histogram(
            "serve.sweep_latency_milliseconds", edges=LATENCY_EDGES_MS
        )
        # One histogram per latency-stack component — the service-level
        # CPI stack. Recorded via _record_stack; the names here keep
        # them statically checkable and visible in fresh snapshots.
        self.metrics.histogram(
            "serve.latency_stack_queue_wait_milliseconds", edges=LATENCY_EDGES_MS
        )
        self.metrics.histogram(
            "serve.latency_stack_coalesce_wait_milliseconds", edges=LATENCY_EDGES_MS
        )
        self.metrics.histogram(
            "serve.latency_stack_cache_tier0_milliseconds", edges=LATENCY_EDGES_MS
        )
        self.metrics.histogram(
            "serve.latency_stack_cache_backend_milliseconds", edges=LATENCY_EDGES_MS
        )
        self.metrics.histogram(
            "serve.latency_stack_pool_execute_milliseconds", edges=LATENCY_EDGES_MS
        )
        self.metrics.histogram(
            "serve.latency_stack_store_put_milliseconds", edges=LATENCY_EDGES_MS
        )
        self.metrics.histogram(
            "serve.latency_stack_serialize_milliseconds", edges=LATENCY_EDGES_MS
        )
        # Handles resolved once: _record_stack runs per traced request,
        # and re-looking histograms up by formatted name there is
        # measurable against the enabled-overhead bound.
        self._stack_hists = {
            component: self.metrics.histogram(
                f"serve.latency_stack_{component}_milliseconds",
                edges=LATENCY_EDGES_MS,
            )
            for component in STACK_COMPONENTS
        }

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        self.shards.start()

    def close(self) -> None:
        # Whatever is still open at shutdown (a request cut off by the
        # loop going down) closes as ``aborted`` — exports never see a
        # span without an end timestamp.
        self.spans.abort_open("service-shutdown")
        self.write_manifest()
        self.shards.close()

    # -- dispatch -----------------------------------------------------

    def _tracing_on(self) -> bool:
        # Brownout level 1+ overrides even a pinned --trace: tracing is
        # the first luxury overload pays with, by design.
        if not self.brownout.tracing_allowed():
            return False
        if self.trace_requests is not None:
            return self.trace_requests
        return obs_runtime.tracing_enabled()

    def _sample_queues(self) -> None:
        """One event-loop sample of queue depth and in-flight requests.

        Pure memory — reading ``len`` of per-shard pending tables and
        the inflight map — so sampling at request milestones is safe on
        the loop and cheap enough to leave always on. Each sample also
        feeds the brownout controller (pressure = the worst shard's
        budget fraction) and applies its tier-0 admission cap.
        """
        per_shard = [len(shard.pending) for shard in self.shards]
        depth = sum(per_shard)
        inflight = len(self._inflight)
        self._queue_depth_gauge.set_max(depth)
        self._queue_depth_current_gauge.set(depth)
        self._inflight_gauge.set_max(inflight)
        if per_shard != self._shard_depths_written:
            # Only this sample writes the per-shard gauges.
            for gauge, shard_depth in zip(self._shard_depth_gauges, per_shard):
                gauge.set(shard_depth)
            self._shard_depths_written = per_shard
        pressure = self.admission.max_pressure(per_shard)
        level = self.brownout.observe(pressure)
        self.cache.tier0_admit_bytes = self.brownout.tier0_admit_bytes()
        self._telemetry_seq += 1
        self._telemetry.append(
            {
                "seq": self._telemetry_seq,
                "queue_depth": depth,
                "inflight": inflight,
                "shards": per_shard,
                "pressure": round(pressure, 4),
                "brownout": level,
            }
        )

    async def handle(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """One request dict in, one response dict out; never raises."""
        rid = protocol.request_id(obj)
        watch = Stopwatch()
        self.metrics.counter("serve.requests_total").inc()
        self._sample_queues()
        collector = self.spans if self._tracing_on() else None
        root = None
        mark = 0
        tokens = None
        op: Optional[str] = None
        try:
            op = protocol.request_op(obj)
            if collector is not None and op not in UNTRACED_OPS:
                trace_id, parent_span = protocol.trace_fields(obj)
                if trace_id is None:
                    trace_id = collector.new_trace_id()
                mark = collector.mark()
                root = collector.start(
                    "request", trace_id=trace_id, parent_id=parent_span, op=op
                )
                tokens = obs_context.activate(
                    obs_context.TraceContext(trace_id, root.span_id), collector
                )
            if op == "ping":
                response = protocol.ok_response(
                    rid, "pong", {"service_id": self.service_id}
                )
            elif op == "status":
                response = protocol.ok_response(
                    rid, await asyncio.to_thread(self.status_payload), {}
                )
            elif op == "stats":
                # Pure in-memory snapshot, answered inline on the loop:
                # polling it can never block or perturb coalescing.
                response = protocol.ok_response(
                    rid, self.stats_payload(),
                    {"service_id": self.service_id},
                )
            elif op == "trace":
                response = protocol.ok_response(
                    rid, self.trace_payload(obj),
                    {"service_id": self.service_id},
                )
            elif op == "shutdown":
                self.shutdown_requested.set()
                response = protocol.ok_response(
                    rid, "stopping", {"service_id": self.service_id}
                )
            elif op == "simulate":
                response = await self._simulate(
                    rid, obj, self._deadline_of(obj)
                )
            else:  # sweep (request_op already validated the set)
                if self.brownout.shed_sweeps():
                    # Brownout level 3: one sweep fans out to dozens of
                    # pool jobs; under sustained pressure the service
                    # keeps the cheaper `simulate` promise instead.
                    self._shed_sweep()
                response = await self._sweep(rid, obj, self._deadline_of(obj))
        except (protocol.ProtocolError, protocol.ShardCrashError,
                protocol.DeadlineExceededError) as exc:
            self.metrics.counter("serve.errors_total").inc()
            response = protocol.error_response(
                rid, exc.error_type, str(exc), exc.retryable
            )
        except protocol.OverloadedError as exc:
            self.metrics.counter("serve.errors_total").inc()
            response = protocol.error_response(
                rid, exc.error_type, str(exc), exc.retryable,
                extra=exc.wire_extra(),
            )
        except Exception as exc:  # the front door absorbs everything
            self.metrics.counter("serve.errors_total").inc()
            response = protocol.error_response(
                rid, protocol.ERR_INTERNAL,
                f"{type(exc).__name__}: {exc}", False,
            )
        if root is not None:
            if tokens is not None:
                obs_context.deactivate(tokens)
            ok = bool(response.get("ok"))
            collector.finish(root, status="ok" if ok else "error")
            # Records straight from the buffer, unfiltered: the fold
            # skips foreign-trace spans itself, so filtering here too
            # would just walk the window twice.
            stack = fold_latency_stack_records(
                root, collector.since_records(mark)
            )
            self._record_stack(stack)
            meta = response.get("meta")
            if ok and isinstance(meta, dict):
                meta["trace_id"] = root.trace_id
                meta["span_id"] = root.span_id
                meta["wall_ns"] = root.duration_ns
                meta["latency_stack_ns"] = stack
        elapsed_ms = watch.elapsed * 1000.0
        self.metrics.histogram(
            "serve.request_latency_milliseconds", edges=LATENCY_EDGES_MS
        ).add(elapsed_ms)
        if op == "simulate":
            self.metrics.histogram(
                "serve.simulate_latency_milliseconds", edges=LATENCY_EDGES_MS
            ).add(elapsed_ms)
        elif op == "sweep":
            self.metrics.histogram(
                "serve.sweep_latency_milliseconds", edges=LATENCY_EDGES_MS
            ).add(elapsed_ms)
        self._sample_queues()
        return response

    def _record_stack(self, stack: Dict[str, int]) -> None:
        """Aggregate one request's latency stack into the histograms."""
        hists = self._stack_hists
        for component, ns in stack.items():
            hists[component].add(ns / 1e6)

    def _deadline_of(self, obj: Dict[str, Any]) -> Optional[int]:
        """The request's absolute monotonic deadline (ns), or None.

        Converted from the wire's relative ``deadline_ms`` budget the
        moment the request is picked up — everything downstream
        (coalesce waits, shard dispatch, the worker process) compares
        against this one absolute instant, so queueing time is charged
        against the budget instead of resetting it.
        """
        budget = protocol.deadline_budget_ms(obj)
        if budget is None:
            return None
        return deadlines.deadline_from_budget_ms(budget)

    def _shed_sweep(self) -> None:
        """Brownout level 3: reject this sweep with a retry hint."""
        self.metrics.counter("serve.overload_shed_sweeps_total").inc()
        per_shard = [len(shard.pending) for shard in self.shards]
        worst = max(range(len(per_shard)), key=per_shard.__getitem__)
        self.admission.shed_now(
            worst, per_shard[worst], "brownout-shed-sweeps"
        ).raise_overloaded()

    async def _simulate(
        self,
        rid: Optional[str],
        obj: Dict[str, Any],
        deadline: Optional[int],
    ) -> Dict[str, Any]:
        spec = protocol.sim_job_from(obj)
        key = spec.key()
        payload, source, coalesced = await self._result_for(
            key, spec, obj, deadline
        )
        collector = obs_context.current_collector()
        ctx = obs_context.current_context() if collector is not None else None
        t0 = collector.now() if collector is not None else 0
        response = protocol.ok_response(
            rid,
            protocol.summarize_payload(payload),
            {
                "key": key,
                "source": source,
                "coalesced": coalesced,
                "shard": self.shards.route(key).index,
            },
        )
        if collector is not None and ctx is not None:
            collector.add_complete(
                "serialize",
                trace_id=ctx.trace_id,
                parent_id=ctx.span_id,
                start_ns=t0,
            )
        return response

    async def _sweep(
        self,
        rid: Optional[str],
        obj: Dict[str, Any],
        deadline: Optional[int],
    ) -> Dict[str, Any]:
        specs = protocol.sweep_jobs_from(obj)
        points = await asyncio.gather(
            *(
                self._result_for(spec.key(), spec, obj, deadline)
                for spec in specs
            )
        )
        collector = obs_context.current_collector()
        ctx = obs_context.current_context() if collector is not None else None
        t0 = collector.now() if collector is not None else 0
        results = []
        for spec, (payload, source, coalesced) in zip(specs, points):
            summary = protocol.summarize_payload(payload)
            summary["label"] = spec.label
            summary["key"] = spec.key()
            summary["source"] = source
            results.append(summary)
        response = protocol.ok_response(
            rid,
            results,
            {
                "points": len(results),
                "coalesced": sum(1 for _, _, c in points if c),
            },
        )
        if collector is not None and ctx is not None:
            collector.add_complete(
                "serialize",
                trace_id=ctx.trace_id,
                parent_id=ctx.span_id,
                start_ns=t0,
                points=len(results),
            )
        return response

    # -- the singleflight + cache + shard core ------------------------

    async def _await_leader(
        self,
        existing: "asyncio.Future[Tuple[dict, str, Optional[str]]]",
        key: str,
        deadline: Optional[int],
    ) -> Tuple[Dict[str, Any], str, Optional[str]]:
        """A coalesced waiter's bounded wait on the leader's future.

        Shielded — the shared computation must survive one waiter's
        cancellation — and bounded by *this waiter's* deadline: a
        short-budget follower gets its own deadline error without
        cancelling work its siblings (and the leader) still want. The
        asymmetry is deliberate: the pool job runs under the leader's
        deadline, each waiter only bounds how long it will stand in
        line for the shared result.
        """
        try:
            return await asyncio.wait_for(
                asyncio.shield(existing),
                timeout=deadlines.remaining_s(deadline),
            )
        except asyncio.TimeoutError:
            self.metrics.counter("serve.deadline_expired_total").inc()
            raise protocol.DeadlineExceededError(
                "deadline expired while waiting on the coalesced "
                f"computation of {key[:12]}"
            ) from None

    async def _result_for(
        self,
        key: str,
        spec: SimJob,
        request: Dict[str, Any],
        deadline: Optional[int],
    ) -> Tuple[Dict[str, Any], str, bool]:
        """``(payload, source, coalesced)`` for one content address.

        The inflight table is checked *and claimed* synchronously —
        no ``await`` between the miss check and the claim — so on a
        single event loop every concurrent duplicate either leads or
        coalesces; there is no window to race through.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.counter("serve.coalesced_total").inc()
            collector = obs_context.current_collector()
            if collector is not None:
                ctx = obs_context.current_context()
                t0 = collector.now()
                payload, source, exec_span = await self._await_leader(
                    existing, key, deadline
                )
                # The waiter span parents to the *leader's* pool_execute
                # span when there was one — that is the cross-request
                # edge that makes a coalesced burst one legible tree.
                collector.add_complete(
                    "coalesce_wait",
                    trace_id=ctx.trace_id if ctx else "",
                    parent_id=exec_span or (ctx.span_id if ctx else None),
                    start_ns=t0,
                    key=key[:12],
                )
            else:
                payload, source, _ = await self._await_leader(
                    existing, key, deadline
                )
            return payload, source, True
        leader: "asyncio.Future[Tuple[dict, str, Optional[str]]]" = (
            asyncio.get_running_loop().create_future()
        )
        # A leader with no followers never awaits its own future; the
        # callback marks any exception as retrieved so asyncio does not
        # log a spurious "exception was never retrieved" at teardown.
        leader.add_done_callback(
            lambda f: f.cancelled() or f.exception()
        )
        self._inflight[key] = leader
        try:
            payload, source, exec_span = await self._compute(
                key, spec, request, deadline
            )
        except Exception as exc:
            leader.set_exception(exc)
            raise
        else:
            leader.set_result((payload, source, exec_span))
            return payload, source, False
        finally:
            # A cancelled leader (CancelledError skips the except
            # clause above) must not strand shielded followers on a
            # future nobody will ever resolve.
            if not leader.done():
                leader.set_exception(
                    protocol.ShardCrashError(
                        "computation abandoned before completion; "
                        "the request is safe to retry"
                    )
                )
            self._inflight.pop(key, None)

    async def _compute(
        self,
        key: str,
        spec: SimJob,
        request: Dict[str, Any],
        deadline: Optional[int],
    ) -> Tuple[Dict[str, Any], str, Optional[str]]:
        if self.use_cache:
            # ``to_thread`` copies the contextvars context, so the
            # cache records its tier-probe spans against this request.
            payload, tier = await asyncio.to_thread(self.cache.lookup, key)
            if payload is not None:
                self.metrics.counter(f"serve.cache_hits_{tier}_total").inc()
                return payload, tier, None
        self.metrics.counter("serve.cache_misses_total").inc()
        payload, exec_span = await self._run_on_shard(
            key, spec, request, deadline
        )
        if self.use_cache:
            # The worker's execute_job already stored the payload. If
            # that put failed, the result is OK-but-unstored and a later
            # miss recomputes it; the service never writes it again.
            self.cache.admit(key, payload)
        return payload, "pool", exec_span

    async def _run_on_shard(
        self,
        key: str,
        spec: SimJob,
        request: Dict[str, Any],
        deadline: Optional[int],
    ) -> Tuple[Dict[str, Any], Optional[str]]:
        """Execute on the owning shard with crash-recovery semantics.

        Returns ``(payload, pool_execute span id)`` — the span id is
        what coalesced waiters parent their ``coalesce_wait`` spans to.

        Admission control lives here, *below* the cache and coalescing
        layers on purpose: warm and duplicate requests cost nothing to
        answer, so only work that would actually occupy a queue slot
        and a pool worker can be shed.
        """
        shard = self.shards.route(key)
        if deadlines.expired(deadline):
            # The budget was spent upstream (wire, cache probes); do
            # not burn a queue slot on a request nobody is waiting for.
            self.metrics.counter("serve.deadline_expired_total").inc()
            raise protocol.DeadlineExceededError(
                f"deadline expired before dispatch of {spec.label}"
            )
        wire_request = {
            k: v for k, v in request.items() if k in (
                "op", "workload", "length", "seed", "core", "config",
                "parameter", "values",
            )
        }
        cost = json_sizeof(wire_request)
        decision = self.admission.try_admit(
            shard.index, len(shard.pending), cost
        )
        if decision is not None:
            decision.raise_overloaded()
        self.metrics.counter("serve.pool_executions_total").inc()
        collector = obs_context.current_collector()
        ctx = obs_context.current_context() if collector is not None else None
        exec_span = None
        trace_ctx = None
        if collector is not None and ctx is not None:
            exec_span = collector.start(
                "pool_execute",
                trace_id=ctx.trace_id,
                parent_id=ctx.span_id,
                shard=shard.index,
                key=key[:12],
            )
            trace_ctx = {
                "trace_id": ctx.trace_id,
                "parent_span": exec_span.span_id,
            }
        exec_span_id = exec_span.span_id if exec_span is not None else None
        service_ms: Optional[float] = None
        pool_watch = Stopwatch()
        try:
            # recover() restarts the pool only for the first observer of
            # ``generation``'s death, so N waiters never kill each
            # other's fresh pools. A pool already broken at submit hands
            # back a failed future, so that corpse takes the same path.
            future, generation = await asyncio.to_thread(
                shard.submit, key, spec, wire_request, trace_ctx, deadline
            )
            self._sample_queues()
            for attempt in (1, 2):
                try:
                    result: JobResult = await asyncio.wait_for(
                        asyncio.wrap_future(future),
                        timeout=deadlines.remaining_s(deadline),
                    )
                except asyncio.TimeoutError:
                    self.metrics.counter("serve.deadline_dropped_total").inc()
                    await asyncio.to_thread(
                        shard.fail, key,
                        "deadline expired while executing",
                    )
                    if collector is not None and exec_span is not None:
                        collector.finish(
                            exec_span, status="aborted",
                            abort_reason="deadline-exceeded",
                        )
                    raise protocol.DeadlineExceededError(
                        f"deadline expired while executing {spec.label}"
                    ) from None
                except BrokenExecutor:
                    recovered = await asyncio.to_thread(
                        shard.recover, generation
                    )
                    if recovered is not None:
                        # First observer of this corpse: the restart
                        # (and the worker-death triage) ran on our
                        # watch. Later observers see None and skip
                        # straight to resubmission on the fresh pool.
                        self.metrics.counter(
                            "serve.shard_restarts_total"
                        ).inc()
                    # Journal triage: work that finished before the
                    # crash replays from the store; everything else
                    # gets exactly one resubmission (at-least-once,
                    # then fail retryable).
                    state = await asyncio.to_thread(shard.journal_state)
                    if state.classify(key) == "complete" and self.use_cache:
                        payload = await asyncio.to_thread(self.store.get, key)
                        if payload is not None:
                            shard.settle(key)
                            if collector is not None and exec_span is not None:
                                collector.finish(
                                    exec_span, status="ok", replayed=True
                                )
                            return payload, exec_span_id
                    if attempt == 2:
                        break
                    resubmitted = await asyncio.to_thread(shard.resubmit, key)
                    if resubmitted is None:
                        break
                    future, generation = resubmitted
                    continue
                if result.status == JobStatus.EXPIRED:
                    # The worker dropped it unexecuted at dequeue —
                    # the budget died in the shard queue.
                    self.metrics.counter("serve.deadline_dropped_total").inc()
                    await asyncio.to_thread(
                        shard.fail, key, result.error or "deadline expired"
                    )
                    if collector is not None and exec_span is not None:
                        collector.finish(
                            exec_span, status="aborted",
                            abort_reason="deadline-exceeded",
                        )
                    raise protocol.DeadlineExceededError(
                        f"deadline expired before {spec.label} reached a "
                        "worker (dropped at dequeue)"
                    )
                if result.ok and result.payload is not None:
                    service_ms = pool_watch.elapsed * 1000.0
                    await asyncio.to_thread(shard.complete, key, result)
                    if collector is not None and exec_span is not None:
                        # Adopt the worker-process spans (worker_execute,
                        # store reads/writes) into this request's tree.
                        collector.absorb(result.spans)
                        collector.finish(exec_span, status="ok")
                    return result.payload, exec_span_id
                error = (result.error or "job failed with no payload").strip()
                await asyncio.to_thread(shard.fail, key, error)
                if collector is not None and exec_span is not None:
                    collector.absorb(result.spans)
                    collector.finish(exec_span, status="error")
                last = error.splitlines()[-1] if error else "job failed"
                raise _job_failure(last)
            await asyncio.to_thread(
                shard.fail, key, "shard crashed while executing"
            )
            if collector is not None and exec_span is not None:
                # The worker died with the job: its spans are gone, so
                # the dispatch span is force-closed rather than left
                # dangling.
                collector.finish(
                    exec_span, status="aborted", abort_reason="shard-crashed"
                )
            raise protocol.ShardCrashError(
                f"shard {shard.index} crashed while executing {spec.label}; "
                "the request is safe to retry"
            )
        finally:
            # Bytes come back whatever happened; the EWMA only learns
            # from completed pool executions (service_ms stays None on
            # every error path).
            self.admission.release(
                shard.index, cost, service_time_ms=service_ms
            )

    # -- introspection ------------------------------------------------

    def status_payload(self) -> Dict[str, Any]:
        """The ``status`` op's result (sync; called off the loop —
        ``shards.describe()`` reads heartbeat files from disk)."""
        return {
            "service_id": self.service_id,
            "version": __version__,
            "pid": os.getpid(),
            "uptime_s": self._uptime.elapsed,
            "store_root": str(self.store.root),
            "shards": self.shards.describe(),
            "cache": self.cache.stats(),
            "tiers": list(TIER_NAMES),
            "inflight": len(self._inflight),
            "admission": self.admission.describe(),
            "brownout": self.brownout.describe(),
            "metrics": self.metrics.snapshot(),
        }

    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` op's result: the live telemetry plane.

        Strictly in-memory (unlike :meth:`status_payload`, which walks
        heartbeat files): per-shard queue depths from the pending
        tables, the telemetry ring of event-loop samples, and the
        latency quantiles — so it runs inline on the loop and a
        dashboard polling it cannot disturb request coalescing.
        """
        snapshot = self.metrics.snapshot()
        return {
            "service_id": self.service_id,
            "uptime_s": self._uptime.elapsed,
            "tracing": self._tracing_on(),
            "inflight": len(self._inflight),
            "admission": self.admission.describe(),
            "brownout": self.brownout.describe(),
            "shards": [
                {
                    "index": shard.index,
                    "queue_depth": len(shard.pending),
                    "submitted": shard.submitted,
                    "restarts": shard.restarts,
                }
                for shard in self.shards
            ],
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "latency_quantiles_ms": {
                name: histogram_quantiles(payload)
                for name, payload in snapshot["histograms"].items()
                if payload["count"]
            },
            "samples": list(self._telemetry),
            "spans_buffered": len(self.spans),
        }

    def trace_payload(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """The ``trace`` op's result: a non-draining span snapshot.

        ``trace_id`` filters to one request's tree; ``limit`` bounds
        the frame (most recent spans win). In-memory only.
        """
        trace_id, _ = protocol.trace_fields(obj)
        limit = obj.get("limit", 500)
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
            raise protocol.ProtocolError(
                "'limit' must be a non-negative integer"
            )
        spans = self.spans.snapshot(trace_id=trace_id, limit=limit)
        return {
            "service_id": self.service_id,
            "count": len(spans),
            "spans": spans,
        }

    def write_manifest(self) -> Path:
        """Persist the metrics/cache snapshot next to lab run manifests.

        The v2 manifest also carries the telemetry ring, the merged
        span snapshot (order-independent: shard/worker spans were
        absorbed as they arrived, then canonicalized here), and the
        latency-stack quantiles.
        """
        payload = self.status_payload()
        snapshot = payload["metrics"]
        payload["telemetry"] = list(self._telemetry)
        payload["spans"] = merge_span_snapshots([self.spans.snapshot()])
        payload["latency_quantiles_ms"] = {
            name: histogram_quantiles(hist)
            for name, hist in snapshot["histograms"].items()
            if hist["count"]
        }
        path = self.store.runs_dir / f"{self.service_id}.serve.json"
        atomic_write_json(path, payload)
        return path


def _job_failure(message: str) -> protocol.ProtocolError:
    error = protocol.ProtocolError(message)
    error.error_type = protocol.ERR_JOB_FAILED
    return error


class ServeServer:
    """JSON-lines TCP adapter over an :class:`ExperimentService`."""

    def __init__(
        self,
        service: ExperimentService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()

    async def start(self) -> None:
        self.service.start()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES + 2,
        )
        # Benign RMW across the await: start() runs once, before any
        # connection handler exists, so nothing can interleave on port.
        self.port = self._server.sockets[0].getsockname()[1]  # repro: noqa[RACE001]
        await asyncio.to_thread(self._write_endpoint)

    def _write_endpoint(self) -> None:
        atomic_write_json(
            endpoint_path(self.service.store.root),
            {
                "host": self.host,
                "port": self.port,
                "pid": os.getpid(),
                "service_id": self.service.service_id,
            },
        )

    def _remove_endpoint(self) -> None:
        try:
            endpoint_path(self.service.store.root).unlink()
        except OSError:
            pass

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(protocol.encode_line(
                        protocol.error_response(
                            None, protocol.ERR_BAD_REQUEST,
                            "request line too long", False,
                        )
                    ))
                    await writer.drain()
                    break
                if not raw:
                    break
                line = raw.strip()
                if not line:
                    continue
                try:
                    obj = protocol.decode_line(line)
                except protocol.ProtocolError as exc:
                    response = protocol.error_response(
                        None, exc.error_type, str(exc), exc.retryable
                    )
                else:
                    response = await self.service.handle(obj)
                writer.write(protocol.encode_line(response))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown with the connection still open: close out
            # quietly instead of logging a cancelled handler task.
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` op (or cancellation) arrives."""
        if self._server is None:
            await self.start()
        try:
            await self.service.shutdown_requested.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        # Claim the server reference synchronously before any await so
        # two concurrent stop() calls cannot both enter the close path
        # (the second claimant sees None and skips it).
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        # ``Server.close`` stops accepting; established connections
        # must be hung up explicitly so their handler tasks finish
        # before the loop does.
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, OSError):
                continue
        await asyncio.sleep(0)
        await asyncio.to_thread(self._remove_endpoint)
        await asyncio.to_thread(self.service.close)


class BackgroundServer:
    """A :class:`ServeServer` on its own thread, for tests and drivers.

    The caller's (synchronous) world sees ``host``/``port`` once
    :meth:`start` returns and must call :meth:`stop` when done.
    """

    def __init__(self, service: ExperimentService, host: str = "127.0.0.1"):
        self.service = service
        self.server = ServeServer(service, host=host)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout_s: float = 30.0) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError("serve server failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"serve server failed: {self._error!r}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced to the caller in stop()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.server.serve_until_shutdown()

    def stop(self, timeout_s: float = 30.0) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(
                self.service.shutdown_requested.set
            )
        if self._thread is not None:
            self._thread.join(timeout_s)
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "BackgroundServer",
    "ENDPOINT_FILE",
    "ExperimentService",
    "LATENCY_EDGES_MS",
    "SPAN_BUFFER_LIMIT",
    "TELEMETRY_SAMPLES",
    "ServeServer",
    "UNTRACED_OPS",
    "endpoint_path",
]
