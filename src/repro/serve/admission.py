"""Admission control and brownout: say no early, degrade on purpose.

An overloaded service has exactly two honest moves: reject new work
*immediately* with a retryable error, or keep accepted work flowing by
shedding its own luxuries. Everything else — unbounded queues, silent
slowdown, timeouts deep in the stack — converts overload into hangs
and lost work. This module implements both honest moves for
:class:`repro.serve.service.ExperimentService`:

:class:`AdmissionController`
    Per-shard bounded admission: a request that would push a shard's
    pending queue past its **depth** budget or its queued-request
    **byte** budget is shed with :class:`repro.serve.protocol.
    OverloadedError` before anything is journaled or submitted. The
    ``retry_after_ms`` hint in the error is sized from the shed
    shard's live depth and its service-time EWMA (an estimate of how
    long the backlog takes to drain) and jittered by a seeded stream
    keyed on the shed sequence number — deterministic for a given
    request order, no wall-clock entropy, and different across
    consecutive sheds so a rejected burst re-arrives staggered. The
    ``serve.admit`` fault site fires on every admission decision, so
    chaos drills can force sheds deterministically.

:class:`BrownoutController`
    Sustained pressure (hysteresis over event-loop samples of queue
    depth and estimated drain time) walks the service down a fixed
    degradation ladder, cheapest luxury first::

        0 normal       everything on
        1 no-tracing   request tracing off (span trees are the most
                       expensive thing the hot path does)
        2 lean-cache   tier-0 cache admission shrunk: only small
                       payloads are promoted, so a burst of huge
                       results cannot churn the LRU under pressure
        3 shed-sweeps  ``sweep`` ops shed outright before ``simulate``
                       (one sweep fans out to MAX_SWEEP_POINTS pool
                       jobs; single simulates are the cheaper promise
                       to keep)

    Raising a level takes :attr:`AdmissionPolicy.brownout_raise_after`
    consecutive high-pressure samples; lowering takes
    :attr:`AdmissionPolicy.brownout_lower_after` consecutive calm ones
    — so one spiky sample cannot flap the service. Every transition
    increments ``serve.overload_transitions_total`` and moves the
    ``serve.brownout_level`` gauge, which ``repro serve top`` renders.

Both controllers are plain synchronous state machines driven from the
event loop (no locks, no awaits) — decisions are made at admission
time on the loop, which is exactly where the live queue-depth numbers
already are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.resilience import faults
from repro.serve import protocol
from repro.util.rng import SplitMix, derive_seed

#: Degradation ladder labels, index == level.
BROWNOUT_LEVELS = ("normal", "no-tracing", "lean-cache", "shed-sweeps")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Budgets and knobs for admission control + brownout.

    Defaults are sized for the stock two-shard service: a shard with
    64 queued jobs at ~100 ms each is already a ~6 s backlog — deeper
    queues only turn overload into timeouts.
    """

    #: Per-shard pending-queue depth ceiling (admission budget).
    max_depth: int = 64
    #: Per-shard queued request-bytes ceiling (admission budget).
    max_bytes: int = 4 * 1024 * 1024
    #: EWMA smoothing for per-shard pool service time.
    ewma_alpha: float = 0.2
    #: Floor of the ``retry_after_ms`` hint.
    retry_after_base_ms: int = 25
    #: Ceiling of the ``retry_after_ms`` hint.
    retry_after_cap_ms: int = 5_000
    #: Seed for the deterministic retry-hint jitter stream.
    seed: int = 2006
    #: Pressure (0..1+ fraction of budget) above which a sample counts
    #: toward raising the brownout level.
    brownout_high: float = 0.75
    #: Pressure below which a sample counts toward lowering it.
    brownout_low: float = 0.25
    #: Consecutive high samples needed to raise one level.
    brownout_raise_after: int = 3
    #: Consecutive low samples needed to lower one level.
    brownout_lower_after: int = 8
    #: Backlog drain estimate (depth × EWMA) treated as pressure 1.0.
    drain_target_ms: float = 2_000.0
    #: Tier-0 cache admission cap (bytes per payload) at level >= 2.
    tier0_lean_bytes: int = 16 * 1024


@dataclass
class ShedDecision:
    """Why a request was not admitted, plus the client's backoff hint."""

    reason: str
    shard: int
    retry_after_ms: int

    def raise_overloaded(self) -> None:
        raise protocol.OverloadedError(
            f"shard {self.shard} overloaded ({self.reason}); "
            f"retry after {self.retry_after_ms} ms",
            retry_after_ms=self.retry_after_ms,
        )


class AdmissionController:
    """Per-shard depth/byte budgets with a seeded retry-after hint."""

    def __init__(
        self,
        policy: AdmissionPolicy,
        metrics: MetricsRegistry,
        n_shards: int,
    ) -> None:
        self.policy = policy
        self.metrics = metrics
        #: Bytes of admitted-but-unfinished requests, per shard.
        self.queued_bytes: Dict[int, int] = {i: 0 for i in range(n_shards)}
        #: Per-shard service-time EWMA in milliseconds (0.0 = no data).
        self.ewma_ms: Dict[int, float] = {i: 0.0 for i in range(n_shards)}
        #: Total sheds so far — the jitter stream's sequence number.
        self.sheds = 0
        # The inputs and result of the last max_pressure call.
        self._last_pressure: Optional[Tuple] = None

    # -- decisions ----------------------------------------------------

    def try_admit(
        self, shard: int, depth: int, cost_bytes: int
    ) -> Optional[ShedDecision]:
        """Admit (None) or shed (a :class:`ShedDecision`) one request.

        ``depth`` is the shard's *live* pending count, read by the
        caller on the event loop at decision time — the current-depth
        signal, not the high-watermark gauge. Admitting reserves
        ``cost_bytes`` against the shard's byte budget until
        :meth:`release`.
        """
        try:
            faults.fault_point("serve.admit")
        except faults.InjectedFault:
            return self._shed(shard, depth, "injected-fault")
        if depth >= self.policy.max_depth:
            return self._shed(shard, depth, "queue-depth")
        if self.queued_bytes.get(shard, 0) + cost_bytes > self.policy.max_bytes:
            return self._shed(shard, depth, "queue-bytes")
        self.queued_bytes[shard] = self.queued_bytes.get(shard, 0) + cost_bytes
        return None

    def release(
        self,
        shard: int,
        cost_bytes: int,
        service_time_ms: Optional[float] = None,
    ) -> None:
        """Return an admitted request's bytes; fold in its pool time."""
        self.queued_bytes[shard] = max(
            0, self.queued_bytes.get(shard, 0) - cost_bytes
        )
        if service_time_ms is not None and service_time_ms >= 0.0:
            previous = self.ewma_ms.get(shard, 0.0)
            alpha = self.policy.ewma_alpha
            if previous <= 0.0:
                self.ewma_ms[shard] = service_time_ms
            else:
                self.ewma_ms[shard] = (
                    alpha * service_time_ms + (1.0 - alpha) * previous
                )

    def shed_now(self, shard: int, depth: int, reason: str) -> ShedDecision:
        """An externally-decided shed (brownout) with the same hint."""
        return self._shed(shard, depth, reason)

    def _shed(self, shard: int, depth: int, reason: str) -> ShedDecision:
        self.sheds += 1
        self.metrics.counter("serve.overload_sheds_total").inc()
        return ShedDecision(
            reason=reason,
            shard=shard,
            retry_after_ms=self.retry_after_ms(shard, depth),
        )

    def retry_after_ms(self, shard: int, depth: int) -> int:
        """The seeded backoff hint for one shed.

        Sized from the shed shard's backlog drain estimate (live depth
        × its service-time EWMA) so a deeper or slower queue pushes
        clients further away, then scaled by a uniform [0.5, 1.5)
        factor from a SplitMix stream keyed on (seed, shed sequence):
        the same request order always produces the same hints, while
        consecutive sheds get different ones — a rejected burst comes
        back staggered instead of in lockstep.
        """
        policy = self.policy
        drain_ms = self.ewma_ms.get(shard, 0.0) * max(1, depth)
        base = policy.retry_after_base_ms + drain_ms
        rng = SplitMix(derive_seed(policy.seed, "retry-after", self.sheds))
        hint = int(base * (0.5 + rng.random()))
        return max(
            policy.retry_after_base_ms,
            min(policy.retry_after_cap_ms, hint),
        )

    # -- introspection ------------------------------------------------

    def pressure(self, shard: int, depth: int) -> float:
        """One shard's load as a fraction of budget (can exceed 1.0).

        The max of three normalized signals: queue depth against the
        depth budget, queued bytes against the byte budget, and the
        estimated drain time (depth × EWMA) against the drain target.
        """
        policy = self.policy
        depth_frac = depth / policy.max_depth if policy.max_depth else 0.0
        bytes_frac = (
            self.queued_bytes.get(shard, 0) / policy.max_bytes
            if policy.max_bytes
            else 0.0
        )
        drain_frac = (
            (self.ewma_ms.get(shard, 0.0) * depth) / policy.drain_target_ms
            if policy.drain_target_ms
            else 0.0
        )
        return max(depth_frac, bytes_frac, drain_frac)

    def max_pressure(self, depths: List[int]) -> float:
        """The worst shard's :meth:`pressure`, given each shard's depth.

        Sampled at every request milestone, mostly with nothing changed
        since the last call, so the last answer is kept and reused
        while the depths, byte and EWMA tables and policy are equal.
        """
        last = self._last_pressure
        if (
            last is not None
            and last[0] == depths
            and last[1] == self.queued_bytes
            and last[2] == self.ewma_ms
            and last[3] is self.policy
        ):
            return last[4]
        worst = max(
            (self.pressure(index, depth) for index, depth in enumerate(depths)),
            default=0.0,
        )
        self._last_pressure = (
            list(depths),
            dict(self.queued_bytes),
            dict(self.ewma_ms),
            self.policy,
            worst,
        )
        return worst

    def describe(self) -> Dict[str, object]:
        return {
            "max_depth": self.policy.max_depth,
            "max_bytes": self.policy.max_bytes,
            "queued_bytes": dict(self.queued_bytes),
            "ewma_ms": {k: round(v, 3) for k, v in self.ewma_ms.items()},
            "sheds": self.sheds,
        }


class BrownoutController:
    """The degradation ladder: pressure in, service level out."""

    def __init__(
        self, policy: AdmissionPolicy, metrics: MetricsRegistry
    ) -> None:
        self.policy = policy
        self.metrics = metrics
        self.level = 0
        self._high_streak = 0
        self._low_streak = 0
        metrics.gauge("serve.brownout_level").set(0)

    def observe(self, pressure: float) -> int:
        """Feed one pressure sample; returns the (possibly new) level.

        Hysteresis both ways: ``brownout_raise_after`` consecutive
        samples above ``brownout_high`` raise one level;
        ``brownout_lower_after`` consecutive samples below
        ``brownout_low`` lower one. Anything in between resets both
        streaks, holding the current level steady.
        """
        policy = self.policy
        if pressure >= policy.brownout_high:
            self._high_streak += 1
            self._low_streak = 0
            if (
                self._high_streak >= policy.brownout_raise_after
                and self.level < len(BROWNOUT_LEVELS) - 1
            ):
                self._set_level(self.level + 1)
                self._high_streak = 0
        elif pressure <= policy.brownout_low:
            self._low_streak += 1
            self._high_streak = 0
            if (
                self._low_streak >= policy.brownout_lower_after
                and self.level > 0
            ):
                self._set_level(self.level - 1)
                self._low_streak = 0
        else:
            self._high_streak = 0
            self._low_streak = 0
        return self.level

    def _set_level(self, level: int) -> None:
        self.level = level
        self.metrics.counter("serve.overload_transitions_total").inc()
        self.metrics.gauge("serve.brownout_level").set(level)

    # -- what the service asks ----------------------------------------

    @property
    def label(self) -> str:
        return BROWNOUT_LEVELS[self.level]

    def tracing_allowed(self) -> bool:
        """Level >= 1 turns request tracing off (even a pinned
        ``--trace``): span trees are the hot path's priciest luxury,
        and they are the first thing overload pays with."""
        return self.level < 1

    def tier0_admit_bytes(self) -> Optional[int]:
        """Tier-0 cache admission cap at level >= 2 (None = no cap)."""
        if self.level >= 2:
            return self.policy.tier0_lean_bytes
        return None

    def shed_sweeps(self) -> bool:
        """Level >= 3: reject ``sweep`` ops outright, keep ``simulate``."""
        return self.level >= 3

    def describe(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "label": self.label,
            "tracing": self.tracing_allowed(),
            "tier0_admit_bytes": self.tier0_admit_bytes(),
            "shed_sweeps": self.shed_sweeps(),
        }


__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "BROWNOUT_LEVELS",
    "BrownoutController",
    "ShedDecision",
]
