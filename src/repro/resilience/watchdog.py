"""Worker heartbeats: the worker-side half of the pool supervisor.

The pool's failure taxonomy has three distinct cases:

- **timeout** — one job exceeded its own ``timeout_s`` budget; the pool
  retries it within the spec's retry budget (the worker is healthy);
- **dead worker** — a worker process vanished (SIGKILL, OOM); every
  in-flight job fails with ``BrokenProcessPool`` and must be re-run;
- **hung worker** — the worker is alive but making no progress (stuck
  syscall, livelock); nothing raises, futures just never resolve.

Heartbeats separate the last two from "slow but fine": each worker
touches ``<dir>/<pid>.json`` at every job boundary (checkpoint) *and*
from a background pulse thread while a job executes
(:data:`WatchdogPolicy.worker_pulse_s`), so a single job legitimately
running longer than ``hang_s`` keeps its heartbeat fresh and is never
mistaken for a hang. The parent-side half — the liveness rule that
catches dead workers via :func:`pid_dead`, and hang detection — lives
in :mod:`repro.resilience.supervisor`.

Worker marking: :func:`mark_worker_process` runs in the executor's
initializer. It is what authorizes the ``pool.worker`` fault site's
``kill`` action — the coordinator and serial runs are never marked, so
a kill plan can only ever take down an expendable worker.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.resilience import faults
from repro.resilience.atomic import AppendOnlyWriter, atomic_write_json

#: This worker's heartbeat directory; None outside marked workers.
_heartbeats: Optional["HeartbeatDir"] = None
_claims_writer: Optional[AppendOnlyWriter] = None


def _pulse_loop(heartbeats: "HeartbeatDir", pulse_s: float) -> None:
    while True:
        time.sleep(pulse_s)
        try:
            heartbeats.beat("pulse")
        except OSError:
            return  # heartbeat dir torn down; the run is over


def mark_worker_process(heartbeats: "HeartbeatDir", pulse_s: float) -> None:
    """Executor initializer: mark this process as an expendable worker.

    A daemon thread keeps beating every ``pulse_s`` seconds for the
    worker's lifetime, so a job that simply runs longer than the
    policy's ``hang_s`` never reads as hung — only a frozen or dead
    process lets its heartbeat go stale.
    """
    global _heartbeats
    _heartbeats = heartbeats
    _heartbeats.beat("init")
    threading.Thread(
        target=_pulse_loop,
        args=(_heartbeats, pulse_s),
        name="repro-heartbeat-pulse",
        daemon=True,
    ).start()


def in_worker_process() -> bool:
    return _heartbeats is not None


def worker_checkpoint(label: str = "") -> None:
    """Job-boundary hook workers call: beat, then hit ``pool.worker``.

    A no-op outside marked worker processes, so serial runs and the
    coordinator neither write heartbeats nor trigger worker faults.
    """
    if _heartbeats is None:
        return
    _heartbeats.beat(label)
    faults.fault_point("pool.worker", allow_kill=True)


def claim_job(key: str) -> None:
    """Worker-side: record *this pid is now executing this key*.

    Appends one line to ``<dir>/<pid>.claims.jsonl`` — an advisory,
    pid-attributed sidecar to the shard's write-ahead journal. When a
    multi-worker shard pool breaks, the parent intersects the dead
    pid's claims with the shard's pending table to attribute in-flight
    keys to *that* worker (journaled as a ``worker-death`` note), so a
    single worker death triages only the work it was actually holding.

    Advisory means no fsync: a torn tail loses at most attribution for
    the final claim — the journal's at-least-once replay is the
    durable safety net, not this file. A no-op outside marked workers.
    """
    global _claims_writer
    if _heartbeats is None or not _heartbeats.root.is_dir():
        return  # not a worker, or torn down by the parent (run over)
    path = _heartbeats.claims_path(os.getpid())
    if _claims_writer is None or _claims_writer.path != path:
        if _claims_writer is not None:
            _claims_writer.close()
        _claims_writer = AppendOnlyWriter(path, fsync=False)
    try:
        _claims_writer.append(
            {"pid": os.getpid(), "key": key, "at": time.time()}
        )
    except OSError:
        pass  # advisory record; never fail the job over it


def stamp_job_start(key: str) -> None:
    """Record the wall-clock instant a timed job attempt began executing.

    Worker-side half of the pool's per-job timeout clock: the parent
    arms a flight's deadline only once this stamp exists, so time a job
    spends queued behind a busy pool never counts against ``timeout_s``.
    A no-op outside marked worker processes.
    """
    if _heartbeats is not None:
        _heartbeats.stamp_start(key)


class HeartbeatDir:
    """One beat file per worker pid under a run-scoped directory."""

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)

    def beat(self, label: str = "") -> None:
        if not self.root.is_dir():
            # Torn down by the parent (run over); don't resurrect it.
            return
        pid = os.getpid()
        atomic_write_json(
            self.root / f"{pid}.json",
            {"pid": pid, "beat_at": time.time(), "label": label},
            fsync=False,  # scratch state; freshness matters, not durability
        )

    def beats(self) -> List[dict]:
        if not self.root.is_dir():
            return []
        records = []
        for path in sorted(self.root.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(record, dict) and "pid" in record:
                records.append(record)
        return records

    def newest_age_s(self) -> Optional[float]:
        """Seconds since the freshest beat, or None with no beats yet."""
        ages = [
            time.time() - record.get("beat_at", 0.0)
            for record in self.beats()
        ]
        return min(ages) if ages else None

    def start_path(self, key: str) -> Path:
        return self.root / f"start-{key[:32]}.json"

    def stamp_start(self, key: str) -> None:
        """Worker-side: mark a timed job attempt as executing *now*."""
        if not self.root.is_dir():
            return  # torn down by the parent; the run is over
        atomic_write_json(
            self.start_path(key),
            {"key": key, "started_at": time.time()},
            fsync=False,  # scratch state; freshness matters, not durability
        )

    def job_started_at(self, key: str) -> Optional[float]:
        """Parent-side: when the job's current attempt began, if it has."""
        try:
            with open(self.start_path(key), "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        started = record.get("started_at") if isinstance(record, dict) else None
        return float(started) if isinstance(started, (int, float)) else None

    def clear_start(self, key: str) -> None:
        """Parent-side: drop a stale stamp before resubmitting a retry."""
        try:
            self.start_path(key).unlink()
        except OSError:
            pass

    def claims_path(self, pid: int) -> Path:
        return self.root / f"{pid}.claims.jsonl"

    def claimed_keys(self, pid: int) -> List[str]:
        """Keys the worker ``pid`` recorded via :func:`claim_job`.

        Most-recent-first, deduplicated; a torn final line (the claim
        being written when the worker died) is skipped, same contract
        as the journal loader.
        """
        try:
            raw = self.claims_path(pid).read_text(encoding="utf-8")
        except OSError:
            return []
        keys: List[str] = []
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail
            key = record.get("key") if isinstance(record, dict) else None
            if isinstance(key, str):
                keys.append(key)
        seen = set()
        ordered: List[str] = []
        for key in reversed(keys):
            if key not in seen:
                seen.add(key)
                ordered.append(key)
        return ordered

    def clear_claims(self, pid: int) -> None:
        """Drop a dead worker's claim file once it has been triaged."""
        try:
            self.claims_path(pid).unlink()
        except OSError:
            pass


@dataclass(frozen=True)
class WatchdogPolicy:
    """When to declare a hang, and how often the supervisor polls."""

    hang_s: float = 60.0
    poll_s: float = 0.2

    @property
    def worker_pulse_s(self) -> float:
        """Mid-job heartbeat interval for workers: well inside ``hang_s``
        so an alive worker can never look stale between pulses."""
        return max(0.05, min(5.0, self.hang_s / 4.0))


def pid_dead(pid: int) -> bool:
    """Best-effort: is this worker pid dead (including zombie)?

    A SIGKILL'd pool worker lingers as a zombie until the executor's
    management thread reaps it, and ``os.kill(pid, 0)`` succeeds on
    zombies — so on Linux the ``/proc`` state is consulted first
    (``Z``/``X`` count as dead). Elsewhere, signal-0 probing is the
    fallback: it flips to dead as soon as the executor reaps.
    """
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            stat = handle.read()
        # Field 2 is "(comm)" and may contain spaces; the state letter
        # is the first token after the closing paren.
        state = stat.rpartition(")")[2].split()[0]
        return state in ("Z", "X", "x")
    except (OSError, IndexError):
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False
    return False


__all__ = [
    "HeartbeatDir",
    "WatchdogPolicy",
    "claim_job",
    "in_worker_process",
    "mark_worker_process",
    "pid_dead",
    "stamp_job_start",
    "worker_checkpoint",
]
