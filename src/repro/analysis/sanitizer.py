"""Cycle-level invariant sanitizer for the simulators.

The paper's methodology is an accounting identity: total cycles
decompose exactly into base + miss-event penalties, and the penalty of
a misprediction is resolution + frontend refill. The sanitizer turns
those identities — plus the microarchitectural invariants they rest on
(bounded ROB occupancy, monotonic commit, per-instruction stage
ordering) — into runtime checks that run alongside a normal
simulation.

Activation: set ``REPRO_SANITIZE=1`` in the environment (inherited by
lab worker processes) or call :func:`enable` (the CLI's ``--sanitize``
flag does). When inactive, every hook is a ``None`` check in the hot
loop and costs nothing.

Violations never raise mid-run: they are collected into structured
:class:`SanitizerReport` records so one bad point cannot kill a
thousand-point sweep. The lab drains reports per job and writes them
into run manifests; ``repro analyze <run>`` reads them back.

This module sits at the bottom of the dependency stack (nothing from
``repro`` is imported) so the pipeline, interval, and lab layers can
all hook into it without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

ENV_VAR = "REPRO_SANITIZE"

#: Tolerance for the CPI-stack accounting identity.
ACCOUNTING_TOLERANCE = 1e-9


@dataclass(frozen=True)
class InvariantViolation:
    """One failed invariant check, with enough context to localize it."""

    check: str
    message: str
    cycle: Optional[int] = None
    seq: Optional[int] = None

    def render(self) -> str:
        where = []
        if self.cycle is not None:
            where.append(f"cycle {self.cycle}")
        if self.seq is not None:
            where.append(f"seq {self.seq}")
        suffix = f" [{', '.join(where)}]" if where else ""
        return f"{self.check}: {self.message}{suffix}"

    def as_payload(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "message": self.message,
            "cycle": self.cycle,
            "seq": self.seq,
        }


@dataclass
class SanitizerReport:
    """Aggregated outcome of one drained sanitizer session."""

    checks_run: int = 0
    runs: int = 0
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "clean" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"sanitizer: {status} over {self.checks_run} check(s), "
            f"{self.runs} run(s)"
        )

    def render(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  {v.render()}" for v in self.violations)
        return "\n".join(lines)

    def as_payload(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "checks_run": self.checks_run,
            "runs": self.runs,
            "violations": [v.as_payload() for v in self.violations],
        }


class Sanitizer:
    """Collects invariant checks and violations for one session.

    One sanitizer may span several simulations (a sweep); the cores
    call the cheap cycle-level hooks during the run (commit order and
    per-instruction stage order at each commit, occupancy at each
    dispatch) and :meth:`seal_run` once at the end for the post-run
    occupancy and miss-event checks.
    """

    def __init__(self) -> None:
        self.checks_run = 0
        self.runs = 0
        self.violations: List[InvariantViolation] = []
        self._last_commit_cycle: Optional[int] = None

    # -- recording ---------------------------------------------------------

    def record(
        self,
        check: str,
        message: str,
        cycle: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> None:
        self.violations.append(
            InvariantViolation(check=check, message=message, cycle=cycle, seq=seq)
        )

    # -- cycle-level hooks (called from the simulator hot loop) ------------

    def check_occupancy(self, cycle: int, occupancy: int, capacity: int) -> None:
        """ROB / in-flight occupancy may never exceed the configured size."""
        self.checks_run += 1
        if occupancy > capacity:
            self.record(
                "rob-occupancy",
                f"in-flight occupancy {occupancy} exceeds capacity {capacity}",
                cycle=cycle,
            )

    def check_commit(self, cycle: int, seq: Optional[int] = None) -> None:
        """Commit timestamps must be monotonically non-decreasing."""
        self.checks_run += 1
        last = self._last_commit_cycle
        if last is not None and cycle < last:
            self.record(
                "commit-monotonic",
                f"commit at cycle {cycle} after a commit at cycle {last}",
                cycle=cycle,
                seq=seq,
            )
        self._last_commit_cycle = cycle

    def check_stages(
        self, seq: int, dispatch: int, issue: int, complete: int, commit: int
    ) -> None:
        """A committing instruction passed its stages in order:
        dispatch <= issue <= complete <= commit.

        The cores call this where they call :meth:`check_commit`, from
        the columns they hold for every run, so a run without a
        recorded timeline is checked too.
        """
        self.checks_run += 1
        if not dispatch <= issue <= complete <= commit:
            self.record(
                "stage-ordering",
                f"dispatch={dispatch} issue={issue} complete={complete} "
                f"commit={commit} violates dispatch<=issue<=complete<=commit",
                seq=seq,
            )

    def begin_run(self) -> None:
        """Reset per-run state (commit clock restarts per simulation)."""
        self._last_commit_cycle = None

    # -- post-run checks ---------------------------------------------------

    def check_result(self, result: Any, config: Any) -> None:
        """Occupancy and miss-event invariants of a finished simulation.

        ``result`` is a ``SimulationResult`` and ``config`` a
        ``CoreConfig``; both are duck-typed so this module stays
        import-cycle-free.
        """
        self.checks_run += 1
        if result.rob_peak_occupancy > config.rob_size:
            self.record(
                "rob-occupancy",
                f"peak occupancy {result.rob_peak_occupancy} exceeds "
                f"rob_size {config.rob_size}",
            )
        for event in result.events:
            penalty = getattr(event, "penalty", None)
            if penalty is None:
                continue
            self.checks_run += 1
            if event.resolve_cycle < event.cycle:
                self.record(
                    "branch-resolution",
                    f"branch resolved at {event.resolve_cycle} before it "
                    f"dispatched at {event.cycle}",
                    seq=event.seq,
                )
            if penalty != event.resolution + event.refill_cycles:
                self.record(
                    "penalty-identity",
                    f"penalty {penalty} != resolution {event.resolution} + "
                    f"refill {event.refill_cycles}",
                    seq=event.seq,
                )

    def check_cpi_stack(self, stack: Any) -> None:
        """The accounting identity: components sum to total cycles."""
        self.checks_run += 1
        total = (
            stack.base
            + stack.bpred
            + stack.icache
            + stack.long_dcache
            + stack.other
        )
        if abs(total - stack.total_cycles) > ACCOUNTING_TOLERANCE:
            self.record(
                "cpi-stack-identity",
                f"components sum to {total!r} but the run measured "
                f"{stack.total_cycles!r} cycles "
                f"(|delta| > {ACCOUNTING_TOLERANCE})",
            )

    def check_penalty_decomposition(self, decomposition: Any) -> None:
        """Per-misprediction identity: penalty == resolution + refill."""
        self.checks_run += 1
        if decomposition.penalty != (
            decomposition.resolution + decomposition.refill
        ):
            self.record(
                "penalty-identity",
                f"penalty {decomposition.penalty} != resolution "
                f"{decomposition.resolution} + refill {decomposition.refill}",
                seq=decomposition.seq,
            )

    def check_fast_estimate(self, estimate: Any, frontend_depth: int) -> None:
        """Interval-simulation identity (``IntervalModel.estimate``): the
        misprediction component is the sum of per-branch resolutions
        plus one refill per branch."""
        self.checks_run += 1
        expected = sum(estimate.resolutions) + (
            estimate.mispredict_count * frontend_depth
        )
        if abs(estimate.mispredict_cycles - expected) > ACCOUNTING_TOLERANCE:
            self.record(
                "fast-sim-identity",
                f"mispredict_cycles {estimate.mispredict_cycles!r} != "
                f"sum(resolutions) + count*refill = {expected!r}",
            )

    def seal_run(self, result: Any, config: Any) -> None:
        """Run every post-run check and count the run as sanitized."""
        self.check_result(result, config)
        self.runs += 1

    # -- reporting ---------------------------------------------------------

    def report(self) -> SanitizerReport:
        return SanitizerReport(
            checks_run=self.checks_run,
            runs=self.runs,
            violations=list(self.violations),
        )


# -- the ambient sanitizer (what the simulators consult) -------------------

_forced: Optional[bool] = None
_ambient: Optional[Sanitizer] = None


def enabled() -> bool:
    """Is sanitizing active (forced flag first, then the environment)?"""
    if _forced is not None:
        return _forced
    return os.environ.get(ENV_VAR, "").strip() not in ("", "0", "false", "no")


def enable() -> None:
    """Force-enable sanitizing and export it to child worker processes."""
    global _forced
    _forced = True
    os.environ[ENV_VAR] = "1"


def disable() -> None:
    """Force-disable sanitizing (tests use this to isolate state)."""
    global _forced
    _forced = False
    os.environ.pop(ENV_VAR, None)


def reset() -> None:
    """Clear the forced flag and drop any ambient sanitizer state."""
    global _forced, _ambient
    _forced = None
    _ambient = None


def current() -> Optional[Sanitizer]:
    """The ambient sanitizer, or None when sanitizing is inactive.

    The hot paths call this once per run and then branch on ``None``,
    so a disabled sanitizer costs one dict lookup per simulation.
    """
    global _ambient
    if not enabled():
        return None
    if _ambient is None:
        _ambient = Sanitizer()
    return _ambient


def drain_report() -> Optional[SanitizerReport]:
    """Return the ambient report and start a fresh collection window.

    Returns None when sanitizing is inactive or nothing ran; callers
    (the lab's ``execute_job``, the CLI) attach the report to their
    telemetry.
    """
    global _ambient
    if _ambient is None:
        return None
    report = _ambient.report()
    _ambient = Sanitizer() if enabled() else None
    if report.checks_run == 0 and not report.violations:
        return None
    return report


__all__ = [
    "ACCOUNTING_TOLERANCE",
    "ENV_VAR",
    "InvariantViolation",
    "Sanitizer",
    "SanitizerReport",
    "current",
    "disable",
    "drain_report",
    "enable",
    "enabled",
    "reset",
]
