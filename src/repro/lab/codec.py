"""JSON codecs for the objects the lab stores.

The store holds plain JSON so results survive process boundaries and
code reloads. Round-tripping must be faithful: the interval-analysis
layer consumes events and per-instruction timelines from a decoded
:class:`~repro.pipeline.result.SimulationResult` exactly as it would
from a fresh simulation (tests assert this bit-for-bit).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
    MissEvent,
)
from repro.pipeline.result import SimulationResult

_EVENT_KINDS = {
    "bpred": BranchMispredictEvent,
    "icache": ICacheMissEvent,
    "long_dmiss": LongDMissEvent,
}


def _event_to_payload(event: MissEvent) -> Dict[str, Any]:
    if isinstance(event, BranchMispredictEvent):
        return {
            "k": "bpred",
            "seq": event.seq,
            "cycle": event.cycle,
            "resolve_cycle": event.resolve_cycle,
            "refill_cycles": event.refill_cycles,
            "window_occupancy": event.window_occupancy,
        }
    if isinstance(event, ICacheMissEvent):
        return {
            "k": "icache",
            "seq": event.seq,
            "cycle": event.cycle,
            "latency": event.latency,
            "long_miss": event.long_miss,
        }
    if isinstance(event, LongDMissEvent):
        return {
            "k": "long_dmiss",
            "seq": event.seq,
            "cycle": event.cycle,
            "complete_cycle": event.complete_cycle,
        }
    raise TypeError(f"unknown event type {type(event).__name__}")


def _event_from_payload(payload: Dict[str, Any]) -> MissEvent:
    data = dict(payload)
    kind = data.pop("k")
    try:
        cls = _EVENT_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown event kind {kind!r}") from None
    return cls(**data)


def result_to_payload(result: SimulationResult) -> Dict[str, Any]:
    """JSON-ready form of a simulation result."""
    return {
        "type": "simulation_result",
        "instructions": result.instructions,
        "cycles": result.cycles,
        "events": [_event_to_payload(e) for e in result.events],
        "dispatch_cycle": result.dispatch_cycle,
        "issue_cycle": result.issue_cycle,
        "complete_cycle": result.complete_cycle,
        "commit_cycle": result.commit_cycle,
        "fu_issue_counts": dict(result.fu_issue_counts),
        "rob_peak_occupancy": result.rob_peak_occupancy,
        "squashed_ghosts": result.squashed_ghosts,
    }


def result_from_payload(payload: Dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_payload`."""
    if payload.get("type") != "simulation_result":
        raise ValueError(f"not a simulation result: {payload.get('type')!r}")
    return SimulationResult(
        instructions=payload["instructions"],
        cycles=payload["cycles"],
        events=[_event_from_payload(e) for e in payload["events"]],
        dispatch_cycle=payload["dispatch_cycle"],
        issue_cycle=payload["issue_cycle"],
        complete_cycle=payload["complete_cycle"],
        commit_cycle=payload["commit_cycle"],
        fu_issue_counts=dict(payload["fu_issue_counts"]),
        rob_peak_occupancy=payload["rob_peak_occupancy"],
        squashed_ghosts=payload["squashed_ghosts"],
    )


def experiment_to_payload(result: "Any") -> Dict[str, Any]:
    """JSON-ready form of an experiment result (tables survive as-is)."""
    return {
        "type": "experiment_result",
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "series": {k: list(v) for k, v in result.series.items()},
        "notes": result.notes,
    }


def experiment_from_payload(payload: Dict[str, Any]) -> "Any":
    """Inverse of :func:`experiment_to_payload`."""
    # Imported here, not at module top: the harness itself imports the
    # lab (runner caching), and a top-level import would be circular.
    from repro.harness.experiment import ExperimentResult

    if payload.get("type") != "experiment_result":
        raise ValueError(f"not an experiment result: {payload.get('type')!r}")
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        headers=list(payload["headers"]),
        rows=[list(row) for row in payload["rows"]],
        series={k: list(v) for k, v in payload["series"].items()},
        notes=payload["notes"],
    )


def batch_to_payload(results: "Any") -> Dict[str, Any]:
    """JSON-ready form of one lockstep batch (a list of results).

    The batch rides the store as a single payload so a
    ``BatchSimJob``'s N lockstep points stay one cache entry — the
    whole point of batching is that they were produced together.
    """
    return {
        "type": "simulation_batch",
        "results": [result_to_payload(r) for r in results],
    }


def batch_from_payload(payload: Dict[str, Any]) -> "Any":
    """Inverse of :func:`batch_to_payload`."""
    if payload.get("type") != "simulation_batch":
        raise ValueError(f"not a simulation batch: {payload.get('type')!r}")
    return [result_from_payload(p) for p in payload["results"]]


def payload_from_value(value: Any) -> Dict[str, Any]:
    """Encode any supported job return value."""
    from repro.harness.experiment import ExperimentResult

    if isinstance(value, SimulationResult):
        return result_to_payload(value)
    if isinstance(value, ExperimentResult):
        return experiment_to_payload(value)
    if isinstance(value, (list, tuple)) and value and all(
        isinstance(item, SimulationResult) for item in value
    ):
        return batch_to_payload(value)
    raise TypeError(
        f"no codec for job value of type {type(value).__name__}"
    )


def value_from_payload(payload: Dict[str, Any]) -> Any:
    """Decode any supported stored payload."""
    kind = payload.get("type")
    if kind == "simulation_result":
        return result_from_payload(payload)
    if kind == "experiment_result":
        return experiment_from_payload(payload)
    if kind == "simulation_batch":
        return batch_from_payload(payload)
    raise ValueError(f"no codec for stored payload type {kind!r}")


__all__: List[str] = [
    "batch_from_payload",
    "batch_to_payload",
    "experiment_from_payload",
    "experiment_to_payload",
    "payload_from_value",
    "result_from_payload",
    "result_to_payload",
    "value_from_payload",
]
