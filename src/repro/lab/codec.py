"""Codecs for the objects the lab stores.

A payload is a JSON-ready dict, except that a simulation result's four
per-instruction cycle columns stay typed ``array('q')`` (see
:class:`~repro.pipeline.result.SimulationResult`). :func:`encode_payload`
turns any payload into one deterministic byte string:

    u32 header length (little-endian)
    header: JSON (sorted keys, compact) of the payload with every cycle
            column replaced by its name and length in a ``columns`` list
    columns: each column, in ``columns`` order, delta-coded as
             little-endian int32 (first delta from 0)

and :func:`decode_payload` inverts it exactly. The store compresses and
checksums these bytes (:mod:`repro.lab.store`). Delta coding keeps the
columns small and compressible: cycles grow with sequence number, so
neighbouring deltas are tiny. A delta that does not fit int32 makes
the encoder raise; it never truncates.

Round-tripping must be faithful: the interval-analysis layer consumes
events and per-instruction timelines from a decoded
:class:`~repro.pipeline.result.SimulationResult` exactly as it would
from a fresh simulation (tests assert this field for field). NumPy is
imported only when a payload has columns, so importing the lab stays
NumPy-free.
"""

from __future__ import annotations

import json
import struct
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
    MissEvent,
)
from repro.pipeline.result import CYCLE_TYPECODE, SimulationResult

#: The per-instruction cycle columns of a simulation result payload.
CYCLE_COLUMNS = ("dispatch_cycle", "issue_cycle", "complete_cycle", "commit_cycle")

_HEADER_LENGTH = struct.Struct("<I")
_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1

_EVENT_KINDS = {
    "bpred": BranchMispredictEvent,
    "icache": ICacheMissEvent,
    "long_dmiss": LongDMissEvent,
}


def _event_to_payload(event: MissEvent) -> Dict[str, Any]:
    if isinstance(event, BranchMispredictEvent):
        payload = {
            "k": "bpred",
            "seq": event.seq,
            "cycle": event.cycle,
            "resolve_cycle": event.resolve_cycle,
            "refill_cycles": event.refill_cycles,
            "window_occupancy": event.window_occupancy,
        }
        # Only wrong-path dispatch sets it: leaving the 0 out keeps
        # every other result's bytes as they were.
        if event.wrong_path_instructions:
            payload["wrong_path_instructions"] = event.wrong_path_instructions
        return payload
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
    """Payload form of a simulation result (columns stay typed)."""
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
    """Payload form of an experiment result (tables survive as-is)."""
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
    """Payload form of one lockstep batch (a list of results).

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


def _split_columns(
    payload: Dict[str, Any], columns: List[Sequence[int]]
) -> Dict[str, Any]:
    """Header form of ``payload``: its cycle columns moved to ``columns``."""
    kind = payload.get("type")
    if kind == "simulation_batch":
        return {
            **payload,
            "results": [_split_columns(p, columns) for p in payload["results"]],
        }
    if kind != "simulation_result":
        return payload
    header = dict(payload)
    names = []
    for name in CYCLE_COLUMNS:
        column = header.get(name)
        if column is not None:
            del header[name]
            names.append([name, len(column)])
            columns.append(column)
    header["columns"] = names
    return header


def _join_columns(
    header: Dict[str, Any], take: Callable[[int], array]
) -> Dict[str, Any]:
    """Inverse of :func:`_split_columns`; ``take(n)`` reads the next column."""
    kind = header.get("type")
    if kind == "simulation_batch":
        header["results"] = [_join_columns(p, take) for p in header["results"]]
    elif kind == "simulation_result":
        for name, length in header.pop("columns"):
            header[name] = take(length)
    return header


def _delta_bytes(column: Sequence[int]) -> bytes:
    import numpy as np

    values = np.asarray(column, dtype=np.int64)  # no copy for array('q')
    deltas = np.diff(values, prepend=np.int64(0))
    if deltas.size and (
        deltas.min() < _INT32_MIN or deltas.max() > _INT32_MAX
    ):
        raise ValueError("cycle column delta does not fit in int32")
    return deltas.astype("<i4").tobytes()


def encode_payload(
    payload: Dict[str, Any], envelope: Optional[Dict[str, Any]] = None
) -> bytes:
    """Deterministic bytes of ``payload`` (layout in the module docstring).

    ``envelope`` fields (the store's key, salt, time stamp, meta) ride
    in the same header beside ``"payload"``.
    """
    columns: List[Sequence[int]] = []
    header = dict(envelope or {})
    header["payload"] = _split_columns(payload, columns)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"".join(
        [_HEADER_LENGTH.pack(len(blob)), blob]
        + [_delta_bytes(column) for column in columns]
    )


def decode_payload(blob: bytes) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Inverse of :func:`encode_payload`: ``(payload, envelope)``.

    Raises ValueError when ``blob`` is not a complete encoding.
    """
    view = memoryview(blob)
    if len(view) < _HEADER_LENGTH.size:
        raise ValueError("payload shorter than its header length")
    (size,) = _HEADER_LENGTH.unpack_from(view)
    offset = _HEADER_LENGTH.size + size
    if offset > len(view):
        raise ValueError("payload header is truncated")
    header = json.loads(bytes(view[_HEADER_LENGTH.size:offset]))
    if not isinstance(header, dict) or not isinstance(
        header.get("payload"), dict
    ):
        raise ValueError("payload header is not an object")

    def take(length: int) -> array:
        nonlocal offset
        end = offset + 4 * length
        if end > len(view):
            raise ValueError("cycle column is truncated")
        column = array(CYCLE_TYPECODE, [0]) * length
        if length:
            import numpy as np

            deltas = np.frombuffer(view, dtype="<i4", count=length, offset=offset)
            np.cumsum(
                deltas, dtype=np.int64, out=np.frombuffer(column, dtype=np.int64)
            )
        offset = end
        return column

    payload = _join_columns(header.pop("payload"), take)
    if offset != len(view):
        raise ValueError("trailing bytes after the last cycle column")
    return payload, header


__all__: List[str] = [
    "CYCLE_COLUMNS",
    "batch_from_payload",
    "batch_to_payload",
    "decode_payload",
    "encode_payload",
    "experiment_from_payload",
    "experiment_to_payload",
    "payload_from_value",
    "result_from_payload",
    "result_to_payload",
    "value_from_payload",
]
