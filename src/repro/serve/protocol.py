"""The serve wire protocol: JSON lines in, JSON lines out.

One request per line, one response per line, UTF-8 JSON with no
embedded newlines. The protocol is deliberately transport-dumb —
everything interesting (coalescing, cache tiers, sharding) happens
behind :meth:`repro.serve.service.ExperimentService.handle`, which
consumes and produces the plain dicts this module validates.

Request shapes (``op`` discriminates)::

    {"op": "ping", "id": "r1"}
    {"op": "status", "id": "r2"}
    {"op": "shutdown", "id": "r3"}
    {"op": "simulate", "id": "r4", "workload": "gzip",
     "length": 20000, "seed": 2006, "core": "ooo",
     "config": {"rob_size": 256}}
    {"op": "sweep", "id": "r5", "workload": "gzip",
     "parameter": "rob_size", "values": [32, 64, 128], ...}
    {"op": "stats", "id": "r6"}
    {"op": "trace", "id": "r7", "trace_id": "t-serve-000001",
     "limit": 200}

Every request may additionally carry ``trace_id`` (adopt the caller's
distributed-trace identity) and ``parent_span`` (the caller-side span
the request span should parent to); both are optional opaque tokens
validated by :func:`trace_fields`. ``simulate``/``sweep`` requests may
also carry ``deadline_ms`` — a relative budget after which the client
stops listening; the service propagates it to workers and drops
expired work instead of executing it (:func:`deadline_budget_ms`).
``stats`` and ``trace`` are served from in-memory state on the event
loop — they never touch the pool or the store, so polling them cannot
perturb coalescing.

Responses::

    {"id": "r4", "ok": true, "result": {...},
     "meta": {"key": "...", "source": "tier0|store|pool",
              "coalesced": false, "shard": 1, "elapsed_ms": 3.2}}
    {"id": "r4", "ok": false,
     "error": {"type": "bad-request", "message": "...",
               "retryable": false}}

``error.retryable`` is the client contract for crash and overload
semantics: a ``shard-crashed`` error means the service accepted the
work but lost the shard twice while executing it — the request is safe
to resend (execution is journaled and content-addressed, so a retry
either replays the stored result or recomputes it). An ``overloaded``
error means admission control shed the request *before* accepting it
(nothing journaled, nothing executed — always safe to resend) and
carries ``retry_after_ms``, the service's seeded-deterministic backoff
hint. ``deadline-exceeded`` is not retryable: the caller's own budget
ran out. The full error × retryable × client-action table lives in
``docs/serve.md``.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.lab.jobs import SimJob, SweepJob
from repro.pipeline.config import CoreConfig

#: Operations the service understands.
OPS = ("ping", "status", "simulate", "sweep", "shutdown", "stats", "trace")

#: Hard ceiling on one request line (bytes); guards the reader buffer.
MAX_LINE_BYTES = 1_000_000

#: Per-request ceiling on simulated instructions, so one query cannot
#: monopolize a shard for minutes.
MAX_LENGTH = 2_000_000

#: And on sweep fan-out.
MAX_SWEEP_POINTS = 64

DEFAULT_LENGTH = 20_000
DEFAULT_SEED = 2006

#: Ceiling on a request's ``deadline_ms`` budget (one hour): a larger
#: value is almost certainly a unit bug on the client side.
MAX_DEADLINE_MS = 3_600_000

#: ``error.type`` values the service emits.
ERR_BAD_REQUEST = "bad-request"
ERR_JOB_FAILED = "job-failed"
ERR_SHARD_CRASHED = "shard-crashed"
ERR_OVERLOADED = "overloaded"
ERR_DEADLINE = "deadline-exceeded"
ERR_INTERNAL = "internal"


class ProtocolError(ValueError):
    """A request that cannot be dispatched (malformed, out of bounds)."""

    error_type = ERR_BAD_REQUEST
    retryable = False


class ShardCrashError(RuntimeError):
    """The owning shard died (twice) while executing accepted work.

    Retryable by contract: the journal has the request on record and
    the store is content-addressed, so resending is always safe.
    """

    error_type = ERR_SHARD_CRASHED
    retryable = True


class OverloadedError(RuntimeError):
    """Admission control shed the request before accepting it.

    Retryable by contract — nothing was journaled or executed, so
    resending is always safe. ``retry_after_ms`` is the service's
    seeded-deterministic backoff hint (sized from the shed shard's
    queue depth and its service-time EWMA); well-behaved clients wait
    at least that long, which is what turns a burst into a ramp.
    """

    error_type = ERR_OVERLOADED
    retryable = True

    def __init__(self, message: str, retry_after_ms: int = 0) -> None:
        super().__init__(message)
        self.retry_after_ms = int(retry_after_ms)

    def wire_extra(self) -> Dict[str, Any]:
        return {"retry_after_ms": self.retry_after_ms}


class DeadlineExceededError(RuntimeError):
    """The request's ``deadline_ms`` budget ran out before completion.

    *Not* retryable: the caller's budget is spent, so a mechanical
    retry with the same deadline would just expire again. Re-issue
    with a larger budget if the result is still wanted — accepted work
    keeps its journal record, and a finished computation lands in the
    content-addressed store, so the re-issue is typically a cache hit.
    """

    error_type = ERR_DEADLINE
    retryable = False


def encode_line(obj: Dict[str, Any]) -> bytes:
    """One protocol frame: compact JSON, newline-terminated."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(raw: bytes) -> Dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    if len(raw) > MAX_LINE_BYTES:
        raise ProtocolError(f"request line over {MAX_LINE_BYTES} bytes")
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    return obj


def request_op(obj: Dict[str, Any]) -> str:
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; one of {', '.join(OPS)}"
        )
    return op


def request_id(obj: Dict[str, Any]) -> Optional[str]:
    """The client's correlation id, if it sent one (echoed verbatim)."""
    rid = obj.get("id")
    return str(rid) if rid is not None else None


#: Opaque trace tokens: printable, no whitespace, bounded. Deliberately
#: loose — they only have to be safe to echo into journals and exports.
TRACE_TOKEN_RE = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")


def trace_fields(obj: Dict[str, Any]) -> Tuple[Optional[str], Optional[str]]:
    """Validate the optional ``trace_id``/``parent_span`` request fields."""
    tokens = []
    for name in ("trace_id", "parent_span"):
        raw = obj.get(name)
        if raw is None:
            tokens.append(None)
            continue
        if not isinstance(raw, str) or not TRACE_TOKEN_RE.match(raw):
            raise ProtocolError(
                f"{name!r} must be a short printable token"
                f" (pattern {TRACE_TOKEN_RE.pattern})"
            )
        tokens.append(raw)
    return tokens[0], tokens[1]


def deadline_budget_ms(obj: Dict[str, Any]) -> Optional[int]:
    """Validate the optional ``deadline_ms`` field (relative budget).

    ``None`` when absent. The budget is client-relative milliseconds;
    the service converts it to an absolute monotonic deadline at
    arrival (:mod:`repro.resilience.deadline`), which is what rides
    the shard queue into workers.
    """
    raw = obj.get("deadline_ms")
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ProtocolError("'deadline_ms' must be an integer")
    if not 1 <= raw <= MAX_DEADLINE_MS:
        raise ProtocolError(
            f"'deadline_ms' must be in [1, {MAX_DEADLINE_MS}]"
        )
    return raw


def _int_field(
    obj: Dict[str, Any], name: str, default: int, low: int, high: int
) -> int:
    raw = obj.get(name, default)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ProtocolError(f"{name!r} must be an integer")
    if not low <= raw <= high:
        raise ProtocolError(f"{name!r} must be in [{low}, {high}]")
    return raw


def _config_from(obj: Dict[str, Any]) -> CoreConfig:
    overrides = obj.get("config") or {}
    if not isinstance(overrides, dict):
        raise ProtocolError("'config' must be an object of field overrides")
    try:
        return CoreConfig().with_overrides(**overrides)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad config override: {exc}") from None


def sim_job_from(obj: Dict[str, Any]) -> SimJob:
    """Validate a ``simulate`` request into a content-addressed job."""
    workload = obj.get("workload")
    if not workload or not isinstance(workload, str):
        raise ProtocolError("'workload' (string) is required")
    core = obj.get("core", "ooo")
    if core not in ("ooo", "inorder"):
        raise ProtocolError("'core' must be 'ooo' or 'inorder'")
    try:
        return SimJob(
            workload=workload,
            length=_int_field(obj, "length", DEFAULT_LENGTH, 1, MAX_LENGTH),
            seed=_int_field(obj, "seed", DEFAULT_SEED, 0, 2**63 - 1),
            config=_config_from(obj),
            core=core,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def sweep_jobs_from(obj: Dict[str, Any]) -> List[SimJob]:
    """Validate a ``sweep`` request and expand it point by point."""
    parameter = obj.get("parameter")
    if not parameter or not isinstance(parameter, str):
        raise ProtocolError("'parameter' (CoreConfig field) is required")
    values = obj.get("values")
    if not isinstance(values, list) or not values:
        raise ProtocolError("'values' must be a non-empty list")
    if len(values) > MAX_SWEEP_POINTS:
        raise ProtocolError(f"at most {MAX_SWEEP_POINTS} sweep points")
    workload = obj.get("workload")
    if not workload or not isinstance(workload, str):
        raise ProtocolError("'workload' (string) is required")
    sweep = SweepJob(
        parameter=parameter,
        values=values,
        workload=workload,
        length=_int_field(obj, "length", DEFAULT_LENGTH, 1, MAX_LENGTH),
        seed=_int_field(obj, "seed", DEFAULT_SEED, 0, 2**63 - 1),
        base_config=_config_from(obj),
        core=obj.get("core", "ooo"),
    )
    try:
        return sweep.expand()
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad sweep: {exc}") from None


def summarize_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The compact result clients get back on the wire.

    Full payloads stay in the store (fetch by ``meta.key``); the
    response carries the headline numbers so frames stay small.
    """
    instructions = payload.get("instructions", 0)
    cycles = payload.get("cycles", 0)
    return {
        "type": payload.get("type"),
        "instructions": instructions,
        "cycles": cycles,
        "ipc": (instructions / cycles) if cycles else 0.0,
        "events": len(payload.get("events", ())),
    }


def ok_response(
    rid: Optional[str], result: Any, meta: Dict[str, Any]
) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": True, "result": result, "meta": meta}
    if rid is not None:
        response["id"] = rid
    return response


def error_response(
    rid: Optional[str],
    error_type: str,
    message: str,
    retryable: bool = False,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    error: Dict[str, Any] = {
        "type": error_type,
        "message": message,
        "retryable": retryable,
    }
    if extra:
        error.update(extra)
    response: Dict[str, Any] = {"ok": False, "error": error}
    if rid is not None:
        response["id"] = rid
    return response


__all__ = [
    "DEFAULT_LENGTH",
    "DEFAULT_SEED",
    "ERR_BAD_REQUEST",
    "ERR_DEADLINE",
    "ERR_INTERNAL",
    "ERR_JOB_FAILED",
    "ERR_OVERLOADED",
    "ERR_SHARD_CRASHED",
    "MAX_DEADLINE_MS",
    "MAX_LENGTH",
    "MAX_LINE_BYTES",
    "MAX_SWEEP_POINTS",
    "OPS",
    "DeadlineExceededError",
    "OverloadedError",
    "ProtocolError",
    "TRACE_TOKEN_RE",
    "ShardCrashError",
    "deadline_budget_ms",
    "decode_line",
    "encode_line",
    "error_response",
    "ok_response",
    "request_id",
    "request_op",
    "sim_job_from",
    "summarize_payload",
    "sweep_jobs_from",
    "trace_fields",
]
