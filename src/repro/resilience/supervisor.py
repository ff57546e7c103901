"""One worker supervisor: the process pool behind lab runs and serve shards.

A :class:`Supervisor` owns one ``ProcessPoolExecutor`` for its whole
life; :mod:`repro.lab.pool` and :mod:`repro.serve.shards` are thin
callers that keep only their own policy. A pool fails in three ways:
one job outruns its ``timeout_s`` (the caller retries it; the worker
is healthy), a worker dies (SIGKILL, OOM), or a worker hangs (alive,
making no progress, and nothing raises). The worker half below tells
the last two apart from "slow but fine"; the parent half acts on them.

Worker half, a no-op outside marked worker processes:

- **Marking.** :func:`mark_worker_process` is the executor's
  initializer. It authorizes the ``pool.worker`` fault site's ``kill``
  action, so a kill plan can only take down an expendable worker,
  never the coordinator or a serial run.
- **Heartbeats.** Each worker touches ``<dir>/<pid>.json`` at every
  job boundary (:func:`worker_checkpoint`) and from a pulse thread
  every :data:`WatchdogPolicy.worker_pulse_s`, so a job that runs
  longer than ``hang_s`` keeps its heartbeat fresh.
- **Claims and start stamps.** :func:`claim_job` records which keys a
  pid holds, and :func:`stamp_job_start` when a timed attempt began.

Parent half, one :class:`Supervisor`:

- **Start.** Workers are all forked eagerly, under one process-wide
  fork lock. A fork that lands while another pool is launching
  inherits that pool's sentinel pipe, and the other executor then
  never sees its worker die.
- **Submit** hands back a future plus the pool's generation. The future
  mirrors the executor's, but the supervisor can fail it; a broken
  generation's future has already failed.
- **Liveness rule.** While any future is pending, a monitor thread
  polls every ``poll_s``. A worker of the current generation that is
  dead or a zombie (:func:`pid_dead`) fails every pending future with
  ``BrokenProcessPool``. The executor's sentinel is not waited for: a
  grandchild the job forked holds it open.
- **Hang detection.** The same poll declares a hang when completions
  and every heartbeat have been silent for ``hang_s``, and fails the
  futures the same way.
- **Restart.** :meth:`Supervisor.recover` restarts a broken generation
  for its first observer only, after attributing each dead worker's
  claimed keys to it.
- **Teardown** never blocks on a stuck worker: a broken pool, or one
  with work still pending, has its workers killed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import Future, InvalidStateError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Container, Dict, List, Optional, Set, Tuple, Union

from repro.resilience import faults
from repro.resilience.atomic import AppendOnlyWriter, atomic_write_json
from repro.util.timing import Stopwatch

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


#: Held by every supervisor while it builds an executor or submits to
#: one: executors fork their workers inside those calls.
_FORK_LOCK = threading.Lock()


class _Attempt(Future):
    """The caller's future for one job: mirrors the executor's future
    unless the supervisor fails it first. ``cancel()`` goes to the
    executor's future, so it still reports whether the job had started."""

    def __init__(self, inner: Future) -> None:
        super().__init__()
        self._inner = inner

    def cancel(self) -> bool:
        return self._inner.cancel() and super().cancel()

    def mirror(self, inner: Future) -> None:
        if inner.cancelled():
            super().cancel()
        elif inner.exception() is not None:
            self.fail(inner.exception())
        else:
            try:
                self.set_result(inner.result())
            except InvalidStateError:
                pass  # the supervisor failed it first

    def fail(self, exc: BaseException) -> None:
        try:
            self.set_exception(exc)
        except InvalidStateError:
            pass  # already settled


def _workers(executor: ProcessPoolExecutor) -> Tuple[Any, ...]:
    """The executor's worker processes; it lists them nowhere public."""
    return tuple((executor._processes or {}).values())


def _teardown(executor: ProcessPoolExecutor, clean: bool) -> None:
    if clean:
        executor.shutdown(wait=True)
        return
    procs = _workers(executor)  # shutdown() forgets them
    executor.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.kill()
        except (OSError, ValueError):
            continue


class Supervisor:
    """One worker pool's lifecycle; see the module docstring."""

    def __init__(
        self,
        workers: int,
        heartbeat_root: Union[str, os.PathLike],
        policy: Optional[WatchdogPolicy] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self.policy = policy or WatchdogPolicy()
        self.heartbeats = HeartbeatDir(heartbeat_root)
        #: Bumped on every restart; callers hand the generation their
        #: submit returned to :meth:`recover`.
        self.generation = 0
        self.restarts = 0
        #: Hangs declared; the lab counts them apart from deaths.
        self.hangs = 0
        #: Serializes the executor lifecycle: the service's ``to_thread``
        #: hops and the monitor reach it from different threads.
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Why the current generation broke; None while it is healthy.
        self._broken: Optional[str] = None
        self._pending: Set[_Attempt] = set()
        #: Guards ``_pending`` alone: the executor's manager thread takes
        #: it when a future settles, so it is never held while waiting.
        self._pending_lock = threading.Lock()
        #: Restarted by every submit to an idle pool and every completion.
        self._idle = Stopwatch()
        self._closed = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    def start(self) -> None:
        with self._lock:
            self._start_locked()

    def _start_locked(self) -> None:
        if self._executor is not None:
            return
        if self._closed.is_set():
            raise BrokenProcessPool("the worker supervisor is closed")
        self.heartbeats.root.mkdir(parents=True, exist_ok=True)
        with _FORK_LOCK:
            executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=mark_worker_process,
                initargs=(self.heartbeats, self.policy.worker_pulse_s),
            )
            # Executors fork workers inside submit(), all at once or one
            # per submit that finds no idle worker, depending on the
            # Python version and start method; one no-op per worker
            # forks them all here, whichever it is.
            for _ in range(self.workers):
                executor.submit(os.getpid)
        self._executor = executor
        self._broken = None
        if self._monitor is None:
            self._monitor = threading.Thread(
                target=self._watch, name="repro-supervisor", daemon=True
            )
            self._monitor.start()

    def recover(
        self, observed_generation: int, pending_keys: Container[str]
    ) -> Optional[Dict[int, List[str]]]:
        """Crash triage and restart for one ``BrokenExecutor`` observer.

        Returns ``None`` when another observer already recovered this
        generation (the caller should go straight to resubmission).
        Otherwise restarts the pool and returns ``{pid: [keys]}``: each
        dead worker's claimed keys, intersected with ``pending_keys``
        so claims from already-completed work are dropped.
        """
        with self._lock:
            if observed_generation != self.generation or self._closed.is_set():
                return None
            attribution: Dict[int, List[str]] = {}
            for record in self.heartbeats.beats():
                pid = record.get("pid")
                if not isinstance(pid, int) or pid == os.getpid() or not pid_dead(pid):
                    continue
                attribution[pid] = [
                    key for key in self.heartbeats.claimed_keys(pid) if key in pending_keys
                ]
                self.heartbeats.clear_claims(pid)
            executor, self._executor = self._executor, None
            if executor is not None:
                _teardown(executor, clean=False)
            # Stale beat files would make the old (dead) pids look current.
            for path in self.heartbeats.root.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    continue
            self.generation += 1
            self.restarts += 1
            self._start_locked()
            return attribution

    def close(self) -> None:
        """Stop the pool and the monitor; never blocks on a stuck worker."""
        self._closed.set()
        with self._lock:
            executor, self._executor = self._executor, None
            clean = self._broken is None and not self._pending
        if executor is not None:
            _teardown(executor, clean)

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Future, int]:
        """Hand ``fn(*args, **kwargs)`` to a worker: ``(future, generation)``.

        A broken generation hands back a future that has already failed
        with ``BrokenProcessPool``, so callers meet every death in one
        place; :meth:`recover` with the generation in hand restarts it.
        """
        with self._lock:
            try:
                self._start_locked()
                if self._broken is not None:
                    raise BrokenProcessPool(self._broken)
                with _FORK_LOCK:  # a submit may still fork a worker
                    inner = self._executor.submit(fn, *args, **kwargs)
            except BrokenProcessPool as exc:
                inner = Future()
                inner.set_exception(exc)
            attempt = _Attempt(inner)
            with self._pending_lock:
                if not self._pending:
                    self._idle.restart()
                self._pending.add(attempt)
            generation = self.generation
        inner.add_done_callback(partial(self._settled, attempt))
        return attempt, generation

    def _settled(self, attempt: _Attempt, inner: Future) -> None:
        with self._pending_lock:
            self._pending.discard(attempt)
        self._idle.restart()
        attempt.mirror(inner)

    def _watch(self) -> None:
        while not self._closed.wait(self.policy.poll_s):
            if self._pending:
                self._enforce_liveness()

    def _enforce_liveness(self) -> None:
        with self._lock:
            if self._broken is not None or self._executor is None:
                return
            dead = [p.pid for p in _workers(self._executor) if pid_dead(p.pid)]
            if dead:
                self._broken = f"worker process(es) {dead} died with work pending"
            elif self._hung():
                self.hangs += 1
                self._broken = f"no completion and no heartbeat for {self.policy.hang_s}s"
            else:
                return
            reason = self._broken
            with self._pending_lock:
                doomed, self._pending = self._pending, set()
        for attempt in doomed:
            attempt.fail(BrokenProcessPool(reason))

    def _hung(self) -> bool:
        if self._idle.elapsed < self.policy.hang_s:
            return False
        age = self.heartbeats.newest_age_s()
        # No beats at all counts as hung: the workers never initialized.
        return age is None or age >= self.policy.hang_s


__all__ = [
    "HeartbeatDir",
    "Supervisor",
    "WatchdogPolicy",
    "claim_job",
    "in_worker_process",
    "mark_worker_process",
    "pid_dead",
    "stamp_job_start",
    "worker_checkpoint",
]
