"""One worker supervisor: the process pool behind lab runs and serve shards.

A :class:`Supervisor` owns one ``ProcessPoolExecutor`` for its whole
life; :mod:`repro.lab.pool` and :mod:`repro.serve.shards` are thin
callers that keep only their own policy.

- **Start.** Workers run
  :func:`~repro.resilience.watchdog.mark_worker_process` as their
  initializer (heartbeats, claims, the ``pool.worker`` fault site) and
  are all forked eagerly, under one process-wide fork lock. A fork that
  lands while another pool is launching inherits that pool's sentinel
  pipe, and the other executor then never sees its worker die.
- **Submit** hands back a future plus the pool's generation. The future
  mirrors the executor's, but the supervisor can fail it; a broken
  generation's future has already failed.
- **Liveness rule.** While any future is pending, a monitor thread
  polls every ``poll_s``. A worker of the current generation that is
  dead or a zombie (:func:`~repro.resilience.watchdog.pid_dead`) fails
  every pending future with ``BrokenProcessPool``. The executor's
  sentinel is not waited for: a grandchild the job forked holds it open.
- **Hang detection.** The same poll declares a hang when completions
  and every heartbeat have been silent for ``hang_s`` (a worker's pulse
  keeps a merely long job fresh), and fails the futures the same way.
- **Restart.** :meth:`Supervisor.recover` restarts a broken generation
  for its first observer only, after attributing each dead worker's
  claimed keys to it.
- **Teardown** never blocks on a stuck worker: a broken pool, or one
  with work still pending, has its workers killed.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, InvalidStateError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Container, Dict, List, Optional, Set, Tuple, Union

from repro.resilience.watchdog import (
    HeartbeatDir,
    WatchdogPolicy,
    mark_worker_process,
    pid_dead,
)
from repro.util.timing import Stopwatch

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


__all__ = ["Supervisor"]
