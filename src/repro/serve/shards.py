"""Shard-per-store-prefix execution: router, worker shards, replay.

The service partitions the content-address space by first byte:
shard ``i`` of ``n`` owns keys whose leading byte falls in
``[i*256/n, (i+1)*256/n)``. Routing is pure arithmetic on the key, so
any number of front doors agree on ownership without coordination, and
each shard's journal/heartbeat state is disjoint by construction.

Each :class:`Shard` owns:

- a :class:`repro.resilience.supervisor.Supervisor` of ``workers``
  processes (>= 1), the same supervisor the lab pool runs on: workers
  heartbeat, claim the key they execute, and honour the
  ``pool.worker`` fault site, exactly like batch pool workers;
- a write-ahead :class:`repro.resilience.journal.RunJournal` under the
  store's ``runs/`` directory (``<service>-shard<i>.journal.jsonl``):
  every accepted job is journaled *before* it is submitted, so a
  SIGKILL'd shard can be restarted and its in-flight work replayed —
  at-least-once execution on top of an idempotent, content-addressed
  job;
- the pending table: one :class:`PendingJob` per accepted key, the
  source of the one resubmission a crash earns.

**Crash triage.** One worker's death breaks the *whole* pool: every
in-flight future raises ``BrokenExecutor``, within one supervisor poll
even when the executor itself never notices. Each observer hands the
generation its submit returned to :meth:`Shard.recover`; only the
first observer of a generation restarts the pool (a second restart
would kill the fresh pool and the work already resubmitted onto it).
That observer's recovery journals one ``worker-death`` note per dead
pid, naming the keys the pid claimed that are still pending — never
"everything in flight on the shard".

Shards are synchronous objects; the async service drives them through
``asyncio.to_thread`` / ``asyncio.wrap_future`` so the event loop
never blocks on executor management.
"""

from __future__ import annotations

import os
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.lab.jobs import JobResult, JobSpec, execute_job
from repro.resilience.journal import JournalState, RunJournal
from repro.resilience.supervisor import HeartbeatDir, Supervisor, WatchdogPolicy


def shard_index(key: str, n_shards: int) -> int:
    """Owner shard of a content address (leading-byte range split)."""
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    return int(key[:2], 16) * n_shards // 256


@dataclass
class PendingJob:
    """One accepted-but-unfinished job on a shard: the in-process replay
    source (the journal is the durable copy)."""

    spec: JobSpec
    #: Trace context, so a replay after a crash keeps the span tree of
    #: the original request instead of starting an orphan.
    trace_ctx: Optional[Dict[str, str]] = None
    #: Absolute monotonic deadline (ns); rides into the worker so
    #: resubmissions keep the original request's budget.
    deadline_ns: Optional[int] = None


class Shard:
    """One hash-prefix range: its supervised workers and its journal."""

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
        self.index = index
        self.run_id = f"{run_id}-shard{index}"
        self.store_root = str(store_root) if store_root else None
        self.use_cache = use_cache
        self.supervisor = Supervisor(
            workers, Path(heartbeat_root) / f"shard{index}", watchdog_policy
        )
        self.journal = RunJournal(runs_dir, self.run_id)
        self.submitted = 0
        self.pending: Dict[str, PendingJob] = {}

    @property
    def heartbeats(self) -> HeartbeatDir:
        return self.supervisor.heartbeats

    @property
    def restarts(self) -> int:
        return self.supervisor.restarts

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        self.supervisor.start()

    def recover(self, observed_generation: int) -> Optional[Dict[int, List[str]]]:
        """Crash triage for one ``BrokenExecutor`` observer.

        Returns ``None`` when another observer already recovered this
        generation (the caller should skip straight to resubmission);
        otherwise the supervisor restarts the pool, each dead pid's
        claimed pending keys are journaled as a ``worker-death`` note,
        and the ``{pid: [keys]}`` attribution map is returned.
        """
        attribution = self.supervisor.recover(observed_generation, self.pending)
        for pid, keys in (attribution or {}).items():
            self.journal.note(
                "worker-death",
                pid=pid,
                keys=keys,
                shard=self.index,
                generation=observed_generation,
            )
        return attribution

    def close(self) -> None:
        self.supervisor.close()
        self.journal.close()

    # -- work ---------------------------------------------------------

    def submit(
        self,
        key: str,
        spec: JobSpec,
        request: Dict[str, Any],
        trace_ctx: Optional[Dict[str, str]] = None,
        deadline_ns: Optional[int] = None,
    ) -> Tuple[Future, int]:
        """Journal the job (write-ahead), then hand it to a worker.

        Returns the future plus the pool generation it runs under. The
        ``accepted`` note carries the client request verbatim so a
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
            self.journal.note("accepted", key=key, request=request, **(trace_ctx or {}))
            self.journal.queued(self.submitted, key, spec.label)
            self.pending[key] = PendingJob(
                spec, dict(trace_ctx) if trace_ctx else None, deadline_ns
            )
        return self._start_attempt(key, spec, trace_ctx, deadline_ns)

    def resubmit(self, key: str) -> Optional[Tuple[Future, int]]:
        """Replay one pending job after a restart (None if unknown)."""
        job = self.pending.get(key)
        if job is None:
            return None
        self.journal.note("replay", key=key, **(job.trace_ctx or {}))
        return self._start_attempt(key, job.spec, job.trace_ctx, job.deadline_ns)

    def _start_attempt(
        self,
        key: str,
        spec: JobSpec,
        trace_ctx: Optional[Dict[str, str]],
        deadline_ns: Optional[int],
    ) -> Tuple[Future, int]:
        self.journal.started(self.submitted, key)
        self.submitted += 1
        return self.supervisor.submit(
            execute_job, spec, self.store_root, self.use_cache,
            trace_ctx=trace_ctx, deadline_ns=deadline_ns,
        )

    def settle(self, key: str) -> None:
        """Forget a pending key whose outcome the journal already holds."""
        self.pending.pop(key, None)

    def complete(self, key: str, result: JobResult) -> None:
        from repro.lab.store import payload_digest

        self.settle(key)
        self.journal.done(
            self.submitted,
            key,
            result.status,
            payload_digest(result.payload) if result.payload else None,
            result.attempts,
        )

    def fail(self, key: str, error: str) -> None:
        self.settle(key)
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
            "workers": self.supervisor.workers,
            "generation": self.supervisor.generation,
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


__all__ = ["PendingJob", "Shard", "ShardSet", "shard_index"]
