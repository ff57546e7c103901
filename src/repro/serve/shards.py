"""Shard-per-store-prefix execution: router, worker shards, replay.

The service partitions the content-address space by first byte:
shard ``i`` of ``n`` owns keys whose leading byte falls in
``[i*256/n, (i+1)*256/n)``. Routing is pure arithmetic on the key, so
any number of front doors agree on ownership without coordination, and
each shard's journal/heartbeat state is disjoint by construction.

Each :class:`Shard` owns:

- a ``ProcessPoolExecutor`` of ``workers`` processes (>= 1) whose
  initializer is the lab's
  :func:`repro.resilience.watchdog.mark_worker_process` — workers
  write heartbeats (with a mid-job pulse), record per-pid *claim*
  files naming the key they are executing, and honour the
  ``pool.worker`` fault site, exactly like batch pool workers;
- a write-ahead :class:`repro.resilience.journal.RunJournal` under the
  store's ``runs/`` directory (``<service>-shard<i>.journal.jsonl``):
  every accepted job is journaled *before* it is submitted, so a
  SIGKILL'd shard can be restarted and its in-flight work replayed —
  at-least-once execution on top of an idempotent, content-addressed
  job;
- restart bookkeeping the service's watchdog loop and ``status`` op
  report.

**Multi-worker crash triage.** ``ProcessPoolExecutor`` semantics make
one worker's death break the *whole* pool: every in-flight future
raises ``BrokenExecutor``, even for workers that were healthy. Two
mechanisms keep the journal's at-least-once story exact anyway:

- *worker attribution*: each worker claims its key in
  ``<heartbeats>/<pid>.claims.jsonl`` before executing. At recovery
  the dead pid's claims are intersected with the pending table and
  journaled as a ``worker-death`` note — so the journal records which
  keys the dead worker was actually holding, not merely "everything
  in flight on the shard". Keys held by workers that were alive at
  the crash are *not* attributed to the death; their requests recover
  through the ordinary resubmit path (and usually replay from the
  store, since those workers often finished and published before the
  pool tore down).
- *generation-guarded restart*: with N workers, N awaiting requests
  see ``BrokenExecutor`` nearly simultaneously. Each captured the
  shard's ``generation`` at submit; :meth:`Shard.recover` restarts
  the pool only for the first observer whose generation still
  matches — later observers see the bump, skip the (destructive)
  restart, and go straight to resubmission on the fresh pool. Without
  the guard, the second restart would SIGKILL the pool the first one
  just built, along with any work already resubmitted onto it.

Shards are synchronous objects; the async service drives them through
``asyncio.to_thread`` / ``asyncio.wrap_future`` so the event loop
never blocks on executor management. Executor-management state
(generation, restart) is serialized by a per-shard lock because those
``to_thread`` hops land on different threads.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.lab.jobs import JobResult, JobSpec, execute_job
from repro.resilience.journal import JournalState, RunJournal
from repro.resilience.watchdog import (
    HeartbeatDir,
    WatchdogPolicy,
    mark_worker_process,
    pid_dead,
)


def shard_index(key: str, n_shards: int) -> int:
    """Owner shard of a content address (leading-byte range split)."""
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    return int(key[:2], 16) * n_shards // 256


class Shard:
    """One hash-prefix range: its executor, journal, and heartbeats."""

    def __init__(
        self,
        index: int,
        run_id: str,
        store_root: Optional[Union[str, Path]],
        runs_dir: Union[str, Path],
        heartbeat_root: Union[str, Path],
        use_cache: bool = True,
        watchdog_policy: Optional[WatchdogPolicy] = None,
        workers: int = 1,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.index = index
        self.run_id = f"{run_id}-shard{index}"
        self.store_root = str(store_root) if store_root else None
        self.use_cache = use_cache
        self.workers = workers
        self.journal = RunJournal(runs_dir, self.run_id)
        self.heartbeats = HeartbeatDir(Path(heartbeat_root) / f"shard{index}")
        self.policy = watchdog_policy or WatchdogPolicy()
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Serializes executor lifecycle (start/restart/recover): the
        #: async service reaches these methods from to_thread workers,
        #: so concurrent BrokenExecutor observers race without it.
        self._lock = threading.Lock()
        #: Bumped on every restart; observers capture it at submit and
        #: present it to :meth:`recover`, which restarts only for the
        #: first observer of a given generation's corpse.
        self.generation = 0
        self.restarts = 0
        self.submitted = 0
        #: key -> spec for accepted-but-unfinished work (replay source
        #: within this process; the journal is the durable copy).
        self.pending: Dict[str, JobSpec] = {}
        #: key -> trace context dict for pending work, so a journal
        #: replay after a crash keeps the span tree of the original
        #: request instead of starting an orphan.
        self.pending_ctx: Dict[str, Dict[str, str]] = {}
        #: key -> absolute monotonic deadline (ns) for pending work;
        #: rides into the worker so resubmissions keep the original
        #: request's budget.
        self.pending_deadline: Dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        with self._lock:
            self._start_locked()

    def _start_locked(self) -> None:
        if self._executor is not None:
            return
        self.heartbeats.root.mkdir(parents=True, exist_ok=True)
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=mark_worker_process,
            initargs=(str(self.heartbeats.root), self.policy.worker_pulse_s),
        )

    def restart(self) -> None:
        """Tear down a (possibly broken) executor and start fresh."""
        with self._lock:
            self._restart_locked()

    def _restart_locked(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        # Stale beat files would make the old (dead) pids look current.
        for path in self.heartbeats.root.glob("*.json"):
            try:
                path.unlink()
            except OSError:
                continue
        self.generation += 1
        self.restarts += 1
        self._start_locked()

    def recover(self, observed_generation: int) -> Optional[Dict[int, List[str]]]:
        """Crash triage for one ``BrokenExecutor`` observer.

        Returns ``None`` when another observer already recovered this
        corpse (the caller should skip straight to resubmission);
        otherwise triages dead workers (journaling ``worker-death``
        notes attributing each dead pid's claimed in-flight keys),
        restarts the pool, and returns the ``{pid: [keys]}``
        attribution map.
        """
        with self._lock:
            if observed_generation != self.generation:
                return None
            attribution = self._triage_dead_workers_locked()
            self._restart_locked()
            return attribution

    def _triage_dead_workers_locked(self) -> Dict[int, List[str]]:
        """Attribute in-flight keys to dead workers, via their claims.

        A pid is *dead* when its process is gone or a zombie
        (:func:`repro.resilience.watchdog.pid_dead`); its attributed
        keys are its claims intersected with the pending table (claims
        from already-completed work are stale and dropped by the
        intersection). Each dead pid gets one ``worker-death`` journal
        note — the worker attribution the multi-worker at-least-once
        proof rests on.
        """
        attribution: Dict[int, List[str]] = {}
        for record in self.heartbeats.beats():
            pid = record.get("pid")
            if not isinstance(pid, int) or pid == os.getpid():
                continue
            if not pid_dead(pid):
                continue
            keys = [
                key
                for key in self.heartbeats.claimed_keys(pid)
                if key in self.pending
            ]
            attribution[pid] = keys
            self.journal.note(
                "worker-death",
                pid=pid,
                keys=keys,
                shard=self.index,
                generation=self.generation,
            )
            self.heartbeats.clear_claims(pid)
        return attribution

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        self.journal.close()

    # -- work ---------------------------------------------------------

    def submit(
        self,
        key: str,
        spec: JobSpec,
        request: Dict[str, Any],
        trace_ctx: Optional[Dict[str, str]] = None,
        deadline_ns: Optional[int] = None,
    ) -> Future:
        """Journal the job (write-ahead), then hand it to a worker.

        The ``accepted`` note carries the client request verbatim so a
        future service generation could rebuild the spec from the
        journal alone; ``queued``/``started`` are the standard resume
        records :class:`JournalState` classifies. ``trace_ctx``
        (``{"trace_id": ..., "parent_span": ...}``) rides into the
        journal and the worker as data — pool workers outlive any one
        request, so parent-side env mutation cannot carry it — and
        ``deadline_ns`` rides the same way so the worker can drop
        already-expired work at dequeue.
        """
        if key not in self.pending:
            if trace_ctx:
                self.journal.note("accepted", key=key, request=request, **trace_ctx)
            else:
                self.journal.note("accepted", key=key, request=request)
            self.journal.queued(self.submitted, key, spec.label)
            self.pending[key] = spec
            if trace_ctx:
                self.pending_ctx[key] = dict(trace_ctx)
            if deadline_ns is not None:
                self.pending_deadline[key] = int(deadline_ns)
        self.journal.started(self.submitted, key)
        self.submitted += 1
        return self._submit(spec, trace_ctx, deadline_ns)

    def resubmit(self, key: str) -> Optional[Future]:
        """Replay one pending job after a restart (None if unknown)."""
        spec = self.pending.get(key)
        if spec is None:
            return None
        trace_ctx = self.pending_ctx.get(key)
        if trace_ctx:
            self.journal.note("replay", key=key, **trace_ctx)
        else:
            self.journal.note("replay", key=key)
        self.journal.started(self.submitted, key)
        self.submitted += 1
        return self._submit(spec, trace_ctx, self.pending_deadline.get(key))

    def _submit(
        self,
        spec: JobSpec,
        trace_ctx: Optional[Dict[str, str]],
        deadline_ns: Optional[int],
    ) -> Future:
        # Under the lifecycle lock: a concurrent recover() swaps the
        # executor out (briefly None, then a fresh pool), and a submit
        # racing that swap would hit None or a shut-down pool. Holding
        # the lock means a submit only ever sees a live or a broken
        # pool, and a broken one raises BrokenExecutor, which callers
        # already handle.
        with self._lock:
            self._start_locked()
            return self._executor.submit(
                execute_job, spec, self.store_root, self.use_cache,
                trace_ctx=trace_ctx, deadline_ns=deadline_ns,
            )

    def complete(self, key: str, result: JobResult) -> None:
        from repro.lab.store import payload_digest

        self.pending.pop(key, None)
        self.pending_ctx.pop(key, None)
        self.pending_deadline.pop(key, None)
        self.journal.done(
            self.submitted,
            key,
            result.status,
            payload_digest(result.payload) if result.payload else None,
            result.attempts,
        )

    def fail(self, key: str, error: str) -> None:
        self.pending.pop(key, None)
        self.pending_ctx.pop(key, None)
        self.pending_deadline.pop(key, None)
        self.journal.failed(self.submitted, key, error, attempts=1)

    def journal_state(self) -> JournalState:
        """Parse this shard's journal (torn final line tolerated)."""
        return JournalState.load(self.journal.path)

    # -- introspection ------------------------------------------------

    def worker_pids(self) -> List[int]:
        return sorted(
            record["pid"]
            for record in self.heartbeats.beats()
            if record.get("pid") != os.getpid()
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "run_id": self.run_id,
            "workers": self.workers,
            "generation": self.generation,
            "submitted": self.submitted,
            "pending": len(self.pending),
            "restarts": self.restarts,
            "worker_pids": self.worker_pids(),
        }


class ShardSet:
    """The fixed ring of shards plus the routing function."""

    def __init__(
        self,
        n_shards: int,
        run_id: str,
        store_root: Optional[Union[str, Path]],
        runs_dir: Union[str, Path],
        heartbeat_root: Union[str, Path],
        use_cache: bool = True,
        watchdog_policy: Optional[WatchdogPolicy] = None,
        workers: int = 1,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.shards = [
            Shard(
                i,
                run_id,
                store_root,
                runs_dir,
                heartbeat_root,
                use_cache=use_cache,
                watchdog_policy=watchdog_policy,
                workers=workers,
            )
            for i in range(n_shards)
        ]

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def route(self, key: str) -> Shard:
        return self.shards[shard_index(key, len(self.shards))]

    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def describe(self) -> List[Dict[str, Any]]:
        return [shard.describe() for shard in self.shards]


__all__ = ["Shard", "ShardSet", "shard_index"]
