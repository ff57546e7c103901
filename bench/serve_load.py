"""The serve workload: a ``repro serve run`` process driven over TCP.

The benchmark starts the service as a user would (``python3 -m repro
serve run``), waits for the first successful ``ping`` (that is set-up),
then plays the episodes of :mod:`stream` as a closed loop: the cold,
warm and sweep requests go one at a time over one
:class:`~repro.serve.client.ServeClient` connection, and each burst
goes out at once over ``BURST`` more connections, one request each.

Correctness, checked after the stream (:func:`check`):

- every response is ``ok``;
- every key comes back with the same summary each time it is seen;
- no warm request is answered by a shard worker;
- no burst is computed more than once;
- a seeded sample of pool-served keys, simulated again in this process,
  matches the service's instructions, cycles and events.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from stream import BURST, Episode, Request

#: Shards the service runs with (one pool worker each).
SHARDS = 2

#: Pool-served keys re-simulated in-process after the timed window.
VERIFY_SAMPLE = 8

#: A connection that waits this long for the others has lost them.
BARRIER_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    episode: int
    conn: int  # 0 for the main connection, 1..BURST for the burst ones
    request: Request
    response: Dict[str, Any]
    start_ns: int
    end_ns: int

    @property
    def latency_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def source(self) -> str:
        meta = self.response.get("meta") or {}
        return str(meta.get("source", self.request.kind))

    @property
    def pool_executed(self) -> bool:
        """A shard worker computed this reply's result for it."""
        meta = self.response.get("meta") or {}
        return meta.get("source") == "pool" and not meta.get("coalesced")


@dataclass
class Played:
    """What :func:`drive` measured."""

    outcomes: List[Outcome]
    #: Monotonic (start, end) of each episode.
    windows: List[Tuple[float, float]]


def _read_proc(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def descendant_pids(root_pid: int) -> List[int]:
    """Every live descendant of ``root_pid``, from ``/proc/*/stat``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read_proc(f"/proc/{entry}/stat")
        if stat is None:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parens.
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [root_pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    status = _read_proc(f"/proc/{pid}/status") or ""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class ServerProcess:
    """One ``repro serve run`` process on its own store."""

    def __init__(self, store: Path, env: Dict[str, str], log: Path,
                 traced: bool = False) -> None:
        self.store = store
        self.env = env
        self.log = log
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        #: Monotonic times of the spawn and of the first answered ping.
        self.spawned = self.ready = 0.0

    def start(self, timeout_s: float = 60.0) -> None:
        """Start the service and wait for its first ``ping``."""
        from repro.serve.client import ServeClient, ServeClientError, read_endpoint

        command = [sys.executable, "-m", "repro", "serve", "run",
                   "--shards", str(SHARDS), "--cache-dir", str(self.store),
                   "-q"]
        if self.traced:
            command.append("--trace")
        with open(self.log, "ab") as log:
            self.spawned = time.monotonic()
            self.proc = subprocess.Popen(command, env=self.env, stdout=log,
                                         stderr=subprocess.STDOUT)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited during start-up; see {self.log}")
            try:
                endpoint = read_endpoint(self.store)
                with ServeClient(endpoint.get("host", self.host),
                                 int(endpoint["port"]), timeout_s=5) as client:
                    if client.ping():
                        self.ready = time.monotonic()
                        self.host = endpoint.get("host", self.host)
                        self.port = int(endpoint["port"])
                        return
            except ServeClientError:
                pass
            if time.monotonic() - self.spawned > timeout_s:
                self.stop()
                raise RuntimeError(f"serve did not answer ping in {timeout_s} s")
            time.sleep(0.005)

    def client(self, timeout_s: float = 120.0):
        from repro.serve.client import ServeClient

        return ServeClient(self.host, self.port, timeout_s=timeout_s)

    def peak_rss_mb(self) -> float:
        """Largest ``VmHWM`` of the service and its workers."""
        pids = [self.proc.pid] + descendant_pids(self.proc.pid)
        return max(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Shut down over the wire; kill whatever is left after that."""
        from repro.serve.client import ServeClientError

        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        family = descendant_pids(proc.pid)
        if proc.poll() is None and self.port:
            try:
                with self.client(timeout_s=10) as client:
                    client.shutdown()
            except ServeClientError:
                pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 10
        while True:
            alive = [pid for pid in family if os.path.exists(f"/proc/{pid}")]
            if not alive:
                return
            if time.monotonic() > deadline:
                for pid in alive:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                deadline = time.monotonic() + 10
            time.sleep(0.05)


def drive(server: ServerProcess, episodes: List[Episode]) -> Played:
    """Play every episode against ``server``."""
    from repro.serve.client import ServeClientError

    start = threading.Barrier(BURST + 1)
    done = threading.Barrier(BURST + 1)
    outcomes: List[Outcome] = []  # list.append is atomic across threads

    def send(client, episode: int, conn: int, request: Request) -> None:
        begin = time.monotonic_ns()
        try:
            response = client.request(request.wire())
        except ServeClientError as exc:
            response = {"ok": False,
                        "error": {"type": "transport", "message": str(exc)}}
        outcomes.append(Outcome(episode, conn, request, response, begin,
                                time.monotonic_ns()))

    def burst_connection(conn: int) -> None:
        try:
            with server.client() as client:
                client.ping()  # connect before the first burst
                for index, episode in enumerate(episodes):
                    start.wait(BARRIER_TIMEOUT_S)
                    send(client, index, conn, episode.burst)
                    done.wait(BARRIER_TIMEOUT_S)
        except BaseException:
            # Never strand the other connections at a barrier.
            start.abort()
            done.abort()
            raise

    threads = [threading.Thread(target=burst_connection, args=(conn,),
                                name=f"burst{conn}")
               for conn in range(1, BURST + 1)]
    for thread in threads:
        thread.start()
    windows: List[Tuple[float, float]] = []
    try:
        with server.client() as client:
            for index, episode in enumerate(episodes):
                begin = time.monotonic()
                for request in episode.cold + episode.warm:
                    send(client, index, 0, request)
                start.wait(BARRIER_TIMEOUT_S)
                done.wait(BARRIER_TIMEOUT_S)
                send(client, index, 0, episode.sweep)
                windows.append((begin, time.monotonic()))
    except threading.BrokenBarrierError:
        raise RuntimeError("a burst connection stopped") from None
    finally:
        start.abort()
        done.abort()
        for thread in threads:
            thread.join()
    return Played(outcomes, windows)


Identity = Tuple[Any, Any, Any, Any]


def _identity(summary: Dict[str, Any]) -> Identity:
    return (summary.get("type"), summary.get("instructions"),
            summary.get("cycles"), summary.get("events"))


def _points(outcome: Outcome) -> List[Tuple[str, Dict[str, Any], str]]:
    """(key, summary, source) for every result a response carries."""
    result = outcome.response["result"]
    if outcome.request.kind == "sweep":
        return [(point["key"], point, point["source"]) for point in result]
    meta = outcome.response["meta"]
    return [(meta["key"], result, meta["source"])]


def check(outcomes: List[Outcome], seed: int,
          verify: int = VERIFY_SAMPLE) -> Tuple[int, List[str]]:
    """Failed-request count and the first few failure messages.
    ``verify`` pool-served keys are simulated again in this process."""
    from repro.lab.codec import result_to_payload
    from repro.serve import protocol

    failed = 0
    messages: List[str] = []

    def fail(outcome: Outcome, message: str) -> None:
        nonlocal failed
        failed += 1
        messages.append(f"episode {outcome.episode} {outcome.request}: {message}")

    seen: Dict[str, Identity] = {}
    pool: Dict[str, Request] = {}
    computed: Dict[int, int] = {}  # episode -> burst replies a worker computed
    for outcome in sorted(outcomes, key=lambda o: o.start_ns):
        if not outcome.response.get("ok"):
            fail(outcome, str(outcome.response.get("error")))
            continue
        consistent = True
        for key, summary, source in _points(outcome):
            if seen.setdefault(key, _identity(summary)) != _identity(summary):
                consistent = False
            if source == "pool":
                pool[key] = outcome.request
        if not consistent:
            fail(outcome, "summary differs from an earlier reply for the same key")
        elif outcome.request.kind == "warm" and outcome.source == "pool":
            fail(outcome, "a shard worker answered a warm request")
        elif outcome.request.kind == "burst" and outcome.pool_executed:
            computed[outcome.episode] = computed.get(outcome.episode, 0) + 1
            if computed[outcome.episode] > 1:
                fail(outcome, "the burst was computed more than once")

    sample = random.Random(seed).sample(sorted(pool), min(verify, len(pool)))
    for key in sample:
        wire = pool[key].wire()
        jobs = (protocol.sweep_jobs_from(wire) if wire["op"] == "sweep"
                else [protocol.sim_job_from(wire)])
        job = next((job for job in jobs if job.key() == key), None)
        if job is None:
            failed += 1
            messages.append(f"{pool[key]}: no request maps to key {key}")
            continue
        local = protocol.summarize_payload(result_to_payload(job.execute()))
        if _identity(local) != seen[key]:
            failed += 1
            messages.append(f"{pool[key]}: service returned {seen[key]}, "
                            f"in-process simulation gives {_identity(local)}")
    return failed, messages[:5]
