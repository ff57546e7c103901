"""Deterministic fault injection: every degradation path, on demand.

The lab's retry, quarantine, and degradation machinery only earns trust
if it can be *exercised*, reproducibly, in unit tests. This module
turns "what if the disk corrupts an object" and "what if a worker gets
OOM-killed" into a seeded plan string::

    REPRO_FAULTS="seed=2006;store.read:corrupt@2;pool.worker:kill@3"

Activation mirrors the sanitizer/obs ambient pattern: a forced plan
(:func:`enable`, used by tests and the CLI) wins over the
``REPRO_FAULTS`` environment variable, and enabling exports the spec to
the environment so lab pool workers inherit it. When neither is set,
:func:`fault_point` is a dict lookup plus a ``None`` check — the <1%
overhead budget on ``bench_lab_throughput``.

Grammar (clauses separated by ``;``)::

    spec    := clause (";" clause)*
    clause  := "seed=" INT | site ":" action ["@" INT] ["x" (INT | "*")]
    site    := "store.write" | "store.read" | "pool.worker"
             | "job.execute" | "serve.admit"
    action  := "raise" | "corrupt" | "kill" | "stop"
             | "delay(" FLOAT ")"

``@N`` arms the rule at the N-th hit of its site (1-based, default 1);
``xM`` keeps it armed for M consecutive hits (default 1, ``x*`` =
forever). Hit counters are per-process, so a plan is deterministic
given a deterministic sequence of site hits — which seeded simulations
provide.

Actions:

- ``raise`` — raise :class:`InjectedFault` (an ordinary ``Exception``,
  so the lab's error capture records it like any real failure);
- ``corrupt`` — deterministically flip bytes in the payload passing
  through the site (seeded by plan seed, site, and hit index); sites
  that carry no payload treat it as ``raise``;
- ``delay(s)`` — sleep ``s`` seconds (hang simulation; pair with the
  pool watchdog);
- ``kill`` — ``SIGKILL`` the current process (worker-death simulation;
  only honoured at the ``pool.worker`` site inside marked worker
  processes so a stray plan can never kill a test runner or the
  coordinator);
- ``stop`` — ``SIGSTOP`` the current process (hard-hang simulation:
  every thread freezes, including the worker's heartbeat pulse, so the
  watchdog sees a truly stale heartbeat; same worker-only gating as
  ``kill``, and it degrades to ``raise`` where ``SIGSTOP`` does not
  exist).
"""

from __future__ import annotations

import os
import re
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.rng import SplitMix, derive_seed

ENV_VAR = "REPRO_FAULTS"

#: The named injection sites wired into the codebase.
SITES: Tuple[str, ...] = (
    "store.write",
    "store.read",
    "pool.worker",
    "job.execute",
    "serve.admit",
)

ACTIONS: Tuple[str, ...] = ("raise", "corrupt", "delay", "kill", "stop")

#: Forever marker for ``count``.
FOREVER = -1

_DELAY_RE = re.compile(r"^delay\((?P<seconds>[0-9.eE+-]+)\)$")


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec string failed to parse."""


class InjectedFault(RuntimeError):
    """The exception an armed ``raise``/``corrupt``-without-payload
    rule throws at its site."""

    def __init__(self, site: str, hit: int, detail: str = "") -> None:
        self.site = site
        self.hit = hit
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"injected fault at {site} (hit {hit}){suffix}"
        )


@dataclass(frozen=True)
class FaultRule:
    """One armed rule: which site, what to do, when."""

    site: str
    action: str
    at_hit: int = 1
    count: int = 1  # FOREVER = every hit from at_hit on
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; one of {', '.join(SITES)}"
            )
        if self.action not in ACTIONS:
            raise FaultSpecError(
                f"unknown fault action {self.action!r}; "
                f"one of {', '.join(ACTIONS)}"
            )
        if self.at_hit < 1:
            raise FaultSpecError("@N must be >= 1 (hits are 1-based)")
        if self.count != FOREVER and self.count < 1:
            raise FaultSpecError("xM must be >= 1 (or * for forever)")
        if self.action == "delay" and self.delay_s < 0:
            raise FaultSpecError("delay seconds must be >= 0")

    def armed_at(self, hit: int) -> bool:
        if hit < self.at_hit:
            return False
        if self.count == FOREVER:
            return True
        return hit < self.at_hit + self.count

    def render(self) -> str:
        action = (
            f"delay({self.delay_s:g})" if self.action == "delay"
            else self.action
        )
        text = f"{self.site}:{action}"
        if self.at_hit != 1:
            text += f"@{self.at_hit}"
        if self.count == FOREVER:
            text += "x*"
        elif self.count != 1:
            text += f"x{self.count}"
        return text


@dataclass
class FaultPlan:
    """A parsed spec plus this process's per-site hit counters."""

    seed: int = 2006
    rules: List[FaultRule] = field(default_factory=list)
    hits: Dict[str, int] = field(default_factory=dict)
    injected: int = 0

    def render(self) -> str:
        """Round-trippable spec string (what :func:`enable` exports)."""
        parts = [f"seed={self.seed}"]
        parts.extend(rule.render() for rule in self.rules)
        return ";".join(parts)

    def corrupt_bytes(self, data: bytes, site: str, hit: int) -> bytes:
        """Deterministically damage ``data`` (always a real change)."""
        if not data:
            return b"\x00"
        rng = SplitMix(derive_seed(self.seed, "corrupt", site, hit))
        blob = bytearray(data)
        flips = max(1, min(len(blob) // 64, 16))
        for _ in range(flips):
            index = rng.randint(0, len(blob) - 1)
            # XOR with a non-zero mask so the byte always changes.
            blob[index] ^= rng.randint(1, 255)
        return bytes(blob)

    def hit(
        self,
        site: str,
        data: Optional[bytes] = None,
        allow_kill: bool = False,
    ) -> Optional[bytes]:
        """Record one hit of ``site`` and apply any armed rules.

        Returns ``data`` (possibly corrupted). Raises
        :class:`InjectedFault` for ``raise`` rules (and for ``corrupt``
        rules at payload-free sites). ``kill`` and ``stop`` rules are
        only honoured when the caller says the process is expendable
        (``allow_kill=True``, i.e. a marked pool worker); elsewhere
        they degrade to ``raise`` so a stray plan cannot take down the
        coordinator.
        """
        if site not in SITES:
            raise FaultSpecError(f"unknown fault site {site!r}")
        hit = self.hits.get(site, 0) + 1
        self.hits[site] = hit
        for rule in self.rules:
            if rule.site != site or not rule.armed_at(hit):
                continue
            self.injected += 1
            _count_injection(site)
            if rule.action == "delay":
                time.sleep(rule.delay_s)
            elif rule.action == "corrupt":
                if data is None:
                    raise InjectedFault(site, hit, "corrupt at payload-free site")
                data = self.corrupt_bytes(data, site, hit)
            elif rule.action == "kill":
                if allow_kill:
                    os.kill(os.getpid(), signal.SIGKILL)
                raise InjectedFault(site, hit, "kill outside a worker")
            elif rule.action == "stop":
                sigstop = getattr(signal, "SIGSTOP", None)
                if allow_kill and sigstop is not None:
                    os.kill(os.getpid(), sigstop)
                    # Resumes only if something SIGCONTs us (the
                    # watchdog SIGKILLs instead); fall through benignly.
                else:
                    raise InjectedFault(site, hit, "stop outside a worker")
            else:  # "raise"
                raise InjectedFault(site, hit)
        return data


def _count_injection(site: str) -> None:
    """Count the injection through the obs metrics registry, if on."""
    from repro.obs import runtime as _obs

    metrics = _obs.current_metrics()
    if metrics is not None:
        metrics.counter("resilience.faults_injected_total").inc()


def parse_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    seed = 2006
    rules: List[FaultRule] = []
    for raw_clause in spec.split(";"):
        clause = raw_clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):], 0)
            except ValueError:
                raise FaultSpecError(
                    f"bad seed clause {clause!r}"
                ) from None
            continue
        if ":" not in clause:
            raise FaultSpecError(
                f"bad fault clause {clause!r}; expected site:action[@N][xM]"
            )
        site, rest = clause.split(":", 1)
        count = 1
        if "x" in rest:
            rest, raw_count = rest.rsplit("x", 1)
            if raw_count == "*":
                count = FOREVER
            else:
                try:
                    count = int(raw_count)
                except ValueError:
                    raise FaultSpecError(
                        f"bad repeat count {raw_count!r} in {clause!r}"
                    ) from None
        at_hit = 1
        if "@" in rest:
            rest, raw_hit = rest.rsplit("@", 1)
            try:
                at_hit = int(raw_hit)
            except ValueError:
                raise FaultSpecError(
                    f"bad hit index {raw_hit!r} in {clause!r}"
                ) from None
        action = rest.strip()
        delay_s = 0.0
        match = _DELAY_RE.match(action)
        if match:
            action = "delay"
            try:
                delay_s = float(match.group("seconds"))
            except ValueError:
                raise FaultSpecError(
                    f"bad delay seconds in {clause!r}"
                ) from None
        rules.append(
            FaultRule(
                site=site.strip(),
                action=action,
                at_hit=at_hit,
                count=count,
                delay_s=delay_s,
            )
        )
    return FaultPlan(seed=seed, rules=rules)


# -- ambient activation (mirrors analysis.sanitizer / obs.runtime) --------

_forced_plan: Optional[FaultPlan] = None
_forced_off = False
#: (spec string, parsed plan) cache so env activation keeps one plan —
#: and therefore one set of hit counters — per process.
_env_cache: Optional[Tuple[str, FaultPlan]] = None


def enable(spec_or_plan) -> FaultPlan:
    """Force-enable a fault plan and export it to worker processes."""
    global _forced_plan, _forced_off
    if isinstance(spec_or_plan, FaultPlan):
        plan = spec_or_plan
    else:
        plan = parse_spec(str(spec_or_plan))
    _forced_plan = plan
    _forced_off = False
    os.environ[ENV_VAR] = plan.render()
    return plan


def disable() -> None:
    """Force faults off for this process (env spec ignored)."""
    global _forced_plan, _forced_off
    _forced_plan = None
    _forced_off = True


def reset() -> None:
    """Drop forced state, the env switch, and the cached env plan."""
    global _forced_plan, _forced_off, _env_cache
    _forced_plan = None
    _forced_off = False
    _env_cache = None
    os.environ.pop(ENV_VAR, None)


def current_plan() -> Optional[FaultPlan]:
    """The active plan, or None when fault injection is off."""
    global _env_cache
    if _forced_plan is not None:
        return _forced_plan
    if _forced_off:
        return None
    spec = os.environ.get(ENV_VAR, "")
    if not spec.strip():
        return None
    if _env_cache is None or _env_cache[0] != spec:
        _env_cache = (spec, parse_spec(spec))
    return _env_cache[1]


def active() -> bool:
    return current_plan() is not None


def fault_point(
    site: str,
    data: Optional[bytes] = None,
    allow_kill: bool = False,
) -> Optional[bytes]:
    """The one hook injection sites call; passthrough when inactive."""
    plan = current_plan()
    if plan is None:
        return data
    return plan.hit(site, data, allow_kill=allow_kill)


class injected:
    """Context manager for tests: enable a plan, restore on exit."""

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.plan: Optional[FaultPlan] = None
        self._previous_env: Optional[str] = None

    def __enter__(self) -> FaultPlan:
        self._previous_env = os.environ.get(ENV_VAR)
        self.plan = enable(self.spec)
        return self.plan

    def __exit__(self, *exc_info) -> None:
        reset()
        if self._previous_env is not None:
            os.environ[ENV_VAR] = self._previous_env


__all__ = [
    "ACTIONS",
    "ENV_VAR",
    "FOREVER",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedFault",
    "SITES",
    "active",
    "current_plan",
    "disable",
    "enable",
    "fault_point",
    "injected",
    "parse_spec",
    "reset",
]
