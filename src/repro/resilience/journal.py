"""Write-ahead run journal: what `--resume` reads after a crash.

Every journaled lab run appends one JSON record per state transition to
``<store root>/runs/<run_id>.journal.jsonl`` *before* acting on it
(write-ahead), through the fsync-per-record
:class:`~repro.resilience.atomic.AppendOnlyWriter`. After a SIGKILL at
any instant the journal is a complete prefix of the run's history plus
at most one torn final line, which the loader detects and drops.

Record shapes (``event`` discriminates)::

    {"event": "run_start", "run_id": ..., "salt": ..., "jobs": N}
    {"event": "queued",  "index": i, "key": ..., "label": ...}
    {"event": "started", "index": i, "key": ...}
    {"event": "done",    "index": i, "key": ..., "status": "ok"|"cached"
                                               |"resumed",
                         "payload_sha256": ..., "attempts": n}
    {"event": "failed",  "index": i, "key": ..., "error": "...",
                         "attempts": n}
    {"event": "interrupted"}           # graceful SIGINT/SIGTERM drain
    {"event": "run_end", "ok": n, "failed": n}

Resume semantics (:meth:`JournalState.classify`): a job whose latest
record is ``done`` is **complete** — its payload is fetched from the
content-addressed store (checksum-verified) and not re-run; every other
job (queued, started-but-not-done, failed, or never journaled) is
**re-queued**. Failed jobs are re-queued on purpose: a crash can
manufacture spurious failures, and re-running a deterministically
failing job reproduces the same failure anyway.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.resilience.atomic import AppendOnlyWriter, read_jsonl

JOURNAL_SUFFIX = ".journal.jsonl"


def journal_path(runs_dir: Union[str, os.PathLike], run_id: str) -> Path:
    return Path(runs_dir) / f"{run_id}{JOURNAL_SUFFIX}"


class RunJournal:
    """Appender for one run's journal (write-ahead, fsync per record)."""

    def __init__(self, runs_dir: Union[str, os.PathLike], run_id: str) -> None:
        self.run_id = run_id
        self.path = journal_path(runs_dir, run_id)
        self._writer = AppendOnlyWriter(self.path)

    def run_start(self, total_jobs: int, salt: str, resumed: bool) -> None:
        self._writer.append(
            {
                "event": "run_start",
                "run_id": self.run_id,
                "salt": salt,
                "jobs": total_jobs,
                "resumed": resumed,
            }
        )

    def queued(self, index: int, key: str, label: str) -> None:
        self._writer.append(
            {"event": "queued", "index": index, "key": key, "label": label}
        )

    def started(self, index: int, key: str) -> None:
        self._writer.append({"event": "started", "index": index, "key": key})

    def done(
        self,
        index: int,
        key: str,
        status: str,
        payload_sha256: Optional[str],
        attempts: int,
    ) -> None:
        self._writer.append(
            {
                "event": "done",
                "index": index,
                "key": key,
                "status": status,
                "payload_sha256": payload_sha256,
                "attempts": attempts,
            }
        )

    def failed(self, index: int, key: str, error: str, attempts: int) -> None:
        # Only the final line of the traceback; the manifest keeps the
        # full text, the journal just needs enough to triage.
        last = error.strip().splitlines()[-1] if error.strip() else "?"
        self._writer.append(
            {
                "event": "failed",
                "index": index,
                "key": key,
                "error": last,
                "attempts": attempts,
            }
        )

    def note(self, event: str, **fields: Any) -> None:
        """Append a free-form record (``event`` plus keyword fields).

        The serve shards use this to journal accepted request payloads
        alongside the standard lifecycle records; :class:`JournalState`
        ignores events it does not recognize, so notes never perturb
        resume classification.
        """
        record: Dict[str, Any] = {"event": event}
        record.update(fields)
        self._writer.append(record)

    def interrupted(self) -> None:
        self._writer.append({"event": "interrupted"})

    def run_end(self, ok: int, failed: int) -> None:
        self._writer.append({"event": "run_end", "ok": ok, "failed": failed})

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class JournalState:
    """Parsed journal: per-key latest state, ready for resume triage."""

    run_id: Optional[str] = None
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: key -> final ``done`` record (completed jobs).
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: key -> final ``failed`` record.
    failed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: keys with a ``started`` but no terminal record (in-flight at crash).
    in_flight: List[str] = field(default_factory=list)
    #: keys only ever ``queued``.
    queued: List[str] = field(default_factory=list)
    ended: bool = False
    interrupted: bool = False

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "JournalState":
        state = cls()
        state.records = [
            r for r in read_jsonl(path) if isinstance(r, dict)
        ]
        started: Dict[str, bool] = {}
        queued_order: List[str] = []
        for record in state.records:
            event = record.get("event")
            key = record.get("key")
            if event == "run_start":
                state.run_id = record.get("run_id")
            elif event == "queued" and key:
                if key not in started:
                    started[key] = False
                    queued_order.append(key)
            elif event == "started" and key:
                started[key] = True
            elif event == "done" and key:
                state.done[key] = record
                state.failed.pop(key, None)
            elif event == "failed" and key:
                state.failed[key] = record
                state.done.pop(key, None)
            elif event == "interrupted":
                state.interrupted = True
            elif event == "run_end":
                state.ended = True
        for key in queued_order:
            if key in state.done or key in state.failed:
                continue
            if started.get(key):
                state.in_flight.append(key)
            else:
                state.queued.append(key)
        return state

    def classify(self, key: str) -> str:
        """``"complete"`` | ``"requeue"`` for one job key."""
        if key in self.done:
            return "complete"
        return "requeue"

    def summary(self) -> str:
        return (
            f"journal {self.run_id or '?'}: {len(self.done)} done, "
            f"{len(self.failed)} failed, {len(self.in_flight)} in-flight, "
            f"{len(self.queued)} queued"
            + (", interrupted" if self.interrupted else "")
            + (", ended" if self.ended else "")
        )


def load_journal(
    runs_dir: Union[str, os.PathLike], run_id: str
) -> Tuple[Path, JournalState]:
    """Locate and parse the journal for ``run_id`` (error if missing)."""
    path = journal_path(runs_dir, run_id)
    if not path.is_file():
        raise FileNotFoundError(
            f"no run journal {path}; was the run journaled "
            "(store-backed) and the id spelled fully?"
        )
    return path, JournalState.load(path)


__all__ = [
    "JOURNAL_SUFFIX",
    "JournalState",
    "RunJournal",
    "journal_path",
    "load_journal",
]
