"""Client resilience: full-exchange timeouts, retries, the breaker.

The fake servers here are deliberately hostile in ways a real asyncio
service never is on purpose — stalling mid-frame, dribbling one byte
at a time, shedding forever — because the client's job is to come
back with an answer or a typed error on *its* schedule regardless.
"""

import json
import socket
import threading
import time

import pytest

from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.serve.client import (
    ServeClient,
    ServeClientError,
    ServeClientTimeout,
    retryable_error,
)

OVERLOADED = {
    "ok": False,
    "error": {
        "type": "overloaded", "message": "shed", "retryable": True,
        "retry_after_ms": 40,
    },
}
CRASHED = {
    "ok": False,
    "error": {"type": "shard-crashed", "message": "boom", "retryable": True},
}
BAD = {
    "ok": False,
    "error": {"type": "bad-request", "message": "no", "retryable": False},
}
PONG = {"ok": True, "result": "pong", "meta": {}}


def dribble(interval_s=0.25, count=40):
    """A script step that leaks one byte at a time, never a full frame."""

    def step(conn):
        try:
            for _ in range(count):
                conn.sendall(b"x")
                time.sleep(interval_s)
        except OSError:
            pass

    return step


def stall(seconds=30.0):
    """A script step that goes silent instead of answering, until
    ``seconds`` pass or the client hangs up."""

    def step(conn):
        conn.settimeout(seconds)
        try:
            conn.recv(1)
        except OSError:
            pass

    return step


class ScriptedServer:
    """A fake serve endpoint driven by a per-request response script.

    Each accepted request line consumes one script step: a dict is
    JSON-encoded and sent as the response frame; a callable gets the
    raw connection (stalling/dribbling behaviours); None closes the
    connection without replying.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        # Closing alone does not wake a thread blocked in accept();
        # shutting the listener down does.
        for close in (
            lambda: self.sock.shutdown(socket.SHUT_RDWR),
            self.sock.close,
        ):
            try:
                close()
            except OSError:
                pass
        self._thread.join(timeout=2.0)

    def _run(self):
        while self.script:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            try:
                self._serve_connection(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _serve_connection(self, conn):
        reader = conn.makefile("rb")
        while self.script:
            line = reader.readline()
            if not line:
                return
            self.requests.append(json.loads(line))
            step = self.script.pop(0)
            if step is None:
                return
            if isinstance(step, dict):
                try:
                    conn.sendall(
                        json.dumps(step).encode("utf-8") + b"\n"
                    )
                except OSError:
                    return
            else:
                step(conn)
                return


class TestFullExchangeTimeout:
    def test_dribbling_server_cannot_stall_the_client(self):
        """THE regression: a server leaking one byte per 0.25s makes
        progress on every recv, so a per-operation timeout of 1s would
        never fire — the old client hung for as long as the server
        cared to dribble. The exchange deadline is absolute."""
        with ScriptedServer([dribble(interval_s=0.25)]) as server:
            client = ServeClient("127.0.0.1", server.port, timeout_s=1.0)
            with client:
                start = time.monotonic()
                with pytest.raises(ServeClientTimeout):
                    client.request({"op": "ping"})
                elapsed = time.monotonic() - start
        assert elapsed < 4.0, f"client stalled for {elapsed:.1f}s"

    def test_silent_server_times_out_promptly(self):
        with ScriptedServer([stall()]) as server:
            client = ServeClient("127.0.0.1", server.port, timeout_s=0.5)
            with client:
                start = time.monotonic()
                with pytest.raises(ServeClientTimeout):
                    client.request({"op": "ping"})
                assert time.monotonic() - start < 3.0

    def test_timeout_poisons_the_connection(self):
        """After a timeout the socket is mid-frame; reusing it would
        hand the next request a stale response. The client must drop
        it and reconnect."""
        with ScriptedServer([stall(0.5), PONG]) as server:
            client = ServeClient("127.0.0.1", server.port, timeout_s=0.3)
            with client:
                with pytest.raises(ServeClientTimeout):
                    client.request({"op": "ping"})
                assert client._sock is None
                time.sleep(0.4)  # let the stalled step finish and close
                assert client.ping()  # fresh connection, clean frame


class TestRetries:
    def test_retryable_errors_consume_retries_until_success(self):
        sleeps = []
        with ScriptedServer([OVERLOADED, CRASHED, PONG]) as server:
            client = ServeClient(
                "127.0.0.1", server.port, retries=3, sleep=sleeps.append
            )
            with client:
                response = client.request({"op": "ping"})
        assert response == PONG
        assert client.retries_performed == 2
        assert len(sleeps) == 2
        # The overloaded rejection's retry_after_ms hint (40ms) floors
        # the first delay: the server knows its backlog, the client
        # respects it even when its own backoff curve says less.
        assert sleeps[0] >= 0.040

    def test_zero_retries_surfaces_the_error_response(self):
        with ScriptedServer([OVERLOADED]) as server:
            client = ServeClient("127.0.0.1", server.port)  # retries=0
            with client:
                response = client.request({"op": "ping"})
        assert retryable_error(response)
        assert response["error"]["retry_after_ms"] == 40

    def test_non_retryable_errors_return_immediately(self):
        with ScriptedServer([BAD, PONG]) as server:
            client = ServeClient(
                "127.0.0.1", server.port, retries=5, sleep=lambda _s: None
            )
            with client:
                response = client.request({"op": "ping"})
        assert response == BAD
        assert client.retries_performed == 0

    def test_transport_errors_are_retried_on_a_fresh_connection(self):
        # Step None: server hangs up without replying; the retry
        # reconnects and the next script step answers.
        with ScriptedServer([None, PONG]) as server:
            client = ServeClient(
                "127.0.0.1", server.port, retries=2, sleep=lambda _s: None
            )
            with client:
                response = client.request({"op": "ping"})
        assert response == PONG
        assert client.retries_performed == 1

    def test_backoff_is_seeded_deterministic(self):
        a = ServeClient(retries=3, seed=7)
        b = ServeClient(retries=3, seed=7)
        c = ServeClient(retries=3, seed=8)
        delays_a = [a._backoff_s("simulate", i) for i in range(3)]
        delays_b = [b._backoff_s("simulate", i) for i in range(3)]
        delays_c = [c._backoff_s("simulate", i) for i in range(3)]
        assert delays_a == delays_b
        assert delays_a != delays_c
        assert delays_a[0] < delays_a[2]  # exponential growth wins out


class TestDeadlines:
    def test_deadline_bounds_the_whole_round_trip(self):
        with ScriptedServer([stall(5.0)]) as server:
            client = ServeClient("127.0.0.1", server.port, timeout_s=30.0)
            with client:
                start = time.monotonic()
                with pytest.raises(ServeClientTimeout):
                    client.request({"op": "ping"}, deadline_ms=300)
                assert time.monotonic() - start < 3.0

    def test_deadline_rides_the_wire_and_shrinks_per_attempt(self):
        sleeps = []
        with ScriptedServer([OVERLOADED, PONG]) as server:
            client = ServeClient(
                "127.0.0.1", server.port, retries=2, sleep=sleeps.append
            )
            with client:
                response = client.request({"op": "ping"}, deadline_ms=5_000)
        assert response == PONG
        budgets = [r["deadline_ms"] for r in server.requests]
        assert len(budgets) == 2
        assert all(1 <= b <= 5_000 for b in budgets)
        # The second attempt forwards what's *left*, not a fresh budget.
        assert budgets[1] <= budgets[0]

    def test_deadline_cuts_retries_short(self):
        """A retry whose backoff would overrun the deadline is not
        taken: the last error response comes back instead."""
        clock = FakeClock()
        with ScriptedServer([OVERLOADED] * 4) as server:
            client = ServeClient(
                "127.0.0.1", server.port, retries=10,
                sleep=clock.advance, clock=clock,
            )
            with client:
                response = client.request({"op": "ping"}, deadline_ms=90)
        # 40ms hint per retry: at most a couple fit inside 90ms.
        assert retryable_error(response)
        assert client.retries_performed <= 2


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        for _ in range(2):
            breaker.before_call("simulate")
            breaker.record_failure("simulate")
        assert breaker.state("simulate") == CLOSED
        breaker.before_call("simulate")
        breaker.record_failure("simulate")
        assert breaker.state("simulate") == OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.before_call("simulate")
        assert excinfo.value.retry_in_s > 0

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.before_call("simulate")
        breaker.record_failure("simulate")
        breaker.before_call("simulate")
        breaker.record_success("simulate")
        breaker.before_call("simulate")
        breaker.record_failure("simulate")
        assert breaker.state("simulate") == CLOSED

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        breaker.before_call("simulate")
        breaker.record_failure("simulate")
        assert breaker.state("simulate") == OPEN
        clock.advance(60.0)  # past any jittered cooldown (cap 30s)
        assert breaker.state("simulate") == HALF_OPEN
        breaker.before_call("simulate")  # the probe
        breaker.record_success("simulate")
        assert breaker.state("simulate") == CLOSED

    def test_half_open_probe_failure_reopens_longer(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        breaker.before_call("simulate")
        breaker.record_failure("simulate")
        first_cooldown = breaker.describe()["simulate"]["cooldown_s"]
        clock.advance(60.0)
        breaker.before_call("simulate")
        breaker.record_failure("simulate")
        assert breaker.state("simulate") == OPEN
        second_cooldown = breaker.describe()["simulate"]["cooldown_s"]
        # Doubled base, jitter in [0.5, 1.5): strictly longer floor.
        assert second_cooldown > first_cooldown / 1.5

    def test_half_open_admits_bounded_probes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, half_open_probes=1, clock=clock
        )
        breaker.before_call("simulate")
        breaker.record_failure("simulate")
        clock.advance(60.0)
        breaker.before_call("simulate")  # probe slot taken
        with pytest.raises(CircuitOpenError):
            breaker.before_call("simulate")

    def test_endpoints_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        breaker.before_call("sweep")
        breaker.record_failure("sweep")
        assert breaker.state("sweep") == OPEN
        breaker.before_call("simulate")  # unaffected

    def test_cooldowns_are_seeded_deterministic(self):
        def open_once(seed):
            breaker = CircuitBreaker(
                failure_threshold=1, seed=seed, clock=FakeClock()
            )
            breaker.before_call("simulate")
            breaker.record_failure("simulate")
            return breaker.describe()["simulate"]["cooldown_s"]

        assert open_once(7) == open_once(7)
        assert open_once(7) != open_once(8)


class TestClientWithBreaker:
    def test_breaker_stops_hammering_a_shedding_server(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        with ScriptedServer([OVERLOADED] * 8) as server:
            client = ServeClient(
                "127.0.0.1", server.port, breaker=breaker
            )
            with client:
                for _ in range(2):
                    assert retryable_error(client.request({"op": "ping"}))
                with pytest.raises(CircuitOpenError):
                    client.request({"op": "ping"})
        # The third request never reached the server.
        assert len(server.requests) == 2

    def test_breaker_cooldown_is_slept_out_when_retries_remain(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        with ScriptedServer([CRASHED, PONG]) as server:
            client = ServeClient(
                "127.0.0.1", server.port, retries=3, breaker=breaker,
                sleep=clock.advance,
            )
            with client:
                response = client.request({"op": "ping"})
        assert response == PONG
        assert breaker.state("ping") == CLOSED
