"""The resilient client: retries, backoff, breaker, deadlines.

These tests run the client against a *scripted* daemon — a tiny
unix-socket server that answers each request according to a fixed
script (ok / typed error / drop the connection / garble the frame /
truncate mid-frame) and records everything it saw.  That makes each
resilience behaviour assertable in isolation, without probabilities.
"""

import json
import random
import socket
import threading
import time

import pytest

from repro.serve import protocol
from repro.serve.client import (
    CircuitBreaker,
    RetryPolicy,
    ServeClient,
    ServeError,
)


class ScriptedDaemon:
    """Answers requests per a script; records everything it saw.

    Script entries (consumed one per received request):

    * ``"ok"`` — a well-formed ok response echoing the request id
    * ``("error", code)`` / ``("error", code, retry_after_ms)``
    * ``"drop"`` — close the connection without answering
    * ``"garble"`` — a complete line that is not valid JSON
    * ``"truncate"`` — half a frame, no newline, then a hard close
    * ``"wrong_id"`` — a valid response correlated to a bogus id

    An exhausted script answers ``"ok"`` forever.
    """

    def __init__(self, socket_path, script=()):
        self.socket_path = socket_path
        self.script = list(script)
        self.requests = []
        self._listener = socket.socket(
            socket.AF_UNIX, socket.SOCK_STREAM
        )
        self._listener.bind(socket_path)
        self._listener.listen(8)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            try:
                self._serve_connection(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _serve_connection(self, conn):
        handle = conn.makefile("rwb")
        while True:
            line = handle.readline()
            if not line:
                return
            request = json.loads(line.decode())
            self.requests.append(request)
            action = self.script.pop(0) if self.script else "ok"
            if action == "drop":
                return
            if action == "garble":
                handle.write(b"}{ not json at all\n")
                handle.flush()
                continue
            if action == "truncate":
                frame = protocol.encode(
                    protocol.ok_response(request["id"], {"echo": 1})
                )
                handle.write(frame[: len(frame) // 2])
                handle.flush()
                return
            if action == "wrong_id":
                handle.write(protocol.encode(
                    protocol.ok_response(-999, {"echo": 1})
                ))
                handle.flush()
                continue
            if isinstance(action, tuple):
                _tag, code, *rest = action
                response = protocol.error_response(
                    request["id"], code, f"scripted {code}",
                    retry_after_ms=rest[0] if rest else None,
                )
            else:
                response = protocol.ok_response(
                    request["id"], {"echo": request["op"]}
                )
            handle.write(protocol.encode(response))
            handle.flush()

    def close(self):
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does (accept fails with EINVAL).
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive(), "scripted daemon did not exit"


@pytest.fixture
def scripted(tmp_path):
    daemons = []

    def factory(script=()):
        path = str(
            tmp_path / f"scripted-{len(daemons)}.sock"
        )
        daemon = ScriptedDaemon(path, script)
        daemons.append(daemon)
        return daemon

    yield factory
    for daemon in daemons:
        daemon.close()


def make_client(socket_path, **kwargs):
    kwargs.setdefault(
        "retry",
        RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05),
    )
    kwargs.setdefault(
        "breaker", CircuitBreaker(failure_threshold=100)
    )
    kwargs.setdefault("retry_seed", 0)
    return ServeClient(socket_path, **kwargs)


class TestRetryPolicy:
    def test_decorrelated_jitter_bounds(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.05, max_delay=2.0
        )
        rng = random.Random(42)
        delay = 0.0
        for _ in range(200):
            previous = delay
            delay = policy.next_delay(previous, rng)
            assert delay <= 2.0
            assert delay >= min(
                0.05, 2.0
            ), "never below the base delay"
            assert delay <= max(0.05, 3.0 * (previous or 0.05)) + 1e-9

    def test_deterministic_for_one_seed(self):
        policy = RetryPolicy()
        a = [0.0]
        b = [0.0]
        rng_a, rng_b = random.Random(7), random.Random(7)
        for _ in range(10):
            a.append(policy.next_delay(a[-1], rng_a))
            b.append(policy.next_delay(b[-1], rng_b))
        assert a == b


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout=60.0
        )
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_then_close(self):
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=0.05
        )
        breaker.record_failure()
        assert not breaker.allow()
        time.sleep(0.06)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(
            failure_threshold=5, reset_timeout=0.05
        )
        breaker.failures = 5
        breaker.state = "open"
        breaker._opened_at = time.monotonic() - 1.0
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open"
        assert not breaker.allow()


class TestClientRetries:
    def test_recovers_from_dropped_connection(self, scripted):
        daemon = scripted(["drop", "ok"])
        with make_client(daemon.socket_path) as client:
            result = client.ping()
        assert result == {"echo": "ping"}
        assert len(daemon.requests) == 2

    def test_recovers_from_garbled_frame(self, scripted):
        daemon = scripted(["garble", "ok"])
        with make_client(daemon.socket_path) as client:
            assert client.ping() == {"echo": "ping"}

    def test_recovers_from_truncated_frame(self, scripted):
        daemon = scripted(["truncate", "ok"])
        with make_client(daemon.socket_path) as client:
            assert client.ping() == {"echo": "ping"}

    def test_mismatched_response_id_is_transport(self, scripted):
        daemon = scripted(["wrong_id", "ok"])
        with make_client(daemon.socket_path) as client:
            assert client.ping() == {"echo": "ping"}

    def test_request_id_is_stable_across_attempts(self, scripted):
        daemon = scripted(["drop", "drop", "ok"])
        with make_client(daemon.socket_path) as client:
            client.ping()
        ids = [request["id"] for request in daemon.requests]
        assert len(ids) == 3
        assert len(set(ids)) == 1, "one logical request, one id"

    def test_retries_overloaded_and_shutting_down(self, scripted):
        daemon = scripted([
            ("error", "overloaded", 1),
            ("error", "shutting_down", 1),
            "ok",
        ])
        with make_client(daemon.socket_path) as client:
            assert client.ping() == {"echo": "ping"}
        assert len(daemon.requests) == 3

    def test_honors_retry_after_hint(self, scripted):
        daemon = scripted([("error", "overloaded", 150), "ok"])
        with make_client(daemon.socket_path) as client:
            started = time.monotonic()
            client.ping()
            elapsed = time.monotonic() - started
        assert elapsed >= 0.15, "the server's hint floors the backoff"

    def test_does_not_retry_compile_error(self, scripted):
        daemon = scripted([("error", "compile_error")])
        with make_client(daemon.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.request("compile", source="x", opt="O3")
        assert excinfo.value.code == "compile_error"
        assert len(daemon.requests) == 1, "no retry for a real verdict"

    def test_does_not_retry_deadline_exceeded(self, scripted):
        daemon = scripted([("error", "deadline_exceeded")])
        with make_client(daemon.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.request("compile", source="x", opt="O3")
        assert excinfo.value.code == "deadline_exceeded"
        assert len(daemon.requests) == 1

    def test_bounded_attempts_then_last_error(self, scripted):
        daemon = scripted(["drop"] * 10)
        client = make_client(
            daemon.socket_path,
            retry=RetryPolicy(
                max_attempts=3, base_delay=0.005, max_delay=0.01
            ),
        )
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        client.close()
        assert excinfo.value.code == "transport"
        assert len(daemon.requests) == 3

    def test_connect_refused_is_typed_transport(self, tmp_path):
        client = make_client(
            str(tmp_path / "nobody-home.sock"),
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.005, max_delay=0.01
            ),
        )
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.code == "transport"


class TestClientBreaker:
    def test_circuit_opens_and_fails_fast(self, tmp_path):
        client = make_client(
            str(tmp_path / "gone.sock"),
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.005, max_delay=0.01
            ),
            breaker=CircuitBreaker(
                failure_threshold=2, reset_timeout=60.0
            ),
        )
        with pytest.raises(ServeError):
            client.ping()  # two transport failures open the breaker
        started = time.monotonic()
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.code == "circuit_open"
        assert time.monotonic() - started < 0.5, "fail fast, no dial"

    def test_breaker_recovers_once_daemon_returns(
        self, scripted, tmp_path
    ):
        daemon = scripted(["ok"])
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=0.05
        )
        client = make_client(
            daemon.socket_path,
            retry=RetryPolicy(max_attempts=1),
            breaker=breaker,
        )
        breaker.record_failure()  # daemon was lost earlier
        assert breaker.state == "open"
        time.sleep(0.06)
        assert client.ping() == {"echo": "ping"}
        assert breaker.state == "closed"
        client.close()


class TestDeadlinePropagation:
    def test_deadline_rides_artifact_ops_only(self, scripted):
        daemon = scripted()
        with make_client(
            daemon.socket_path, deadline_ms=2500
        ) as client:
            client.ping()
            client.request("compile", source="x", opt="O0")
            client.request("analyze", source="x", level="sync")
        ping, compile_req, analyze_req = daemon.requests
        assert "deadline_ms" not in ping
        assert compile_req["deadline_ms"] == 2500
        assert analyze_req["deadline_ms"] == 2500

    def test_per_call_deadline_overrides_default(self, scripted):
        daemon = scripted()
        with make_client(
            daemon.socket_path, deadline_ms=2500
        ) as client:
            client.request(
                "compile", source="x", opt="O0", deadline_ms=99
            )
        assert daemon.requests[0]["deadline_ms"] == 99

    def test_no_deadline_by_default(self, scripted):
        daemon = scripted()
        with make_client(daemon.socket_path) as client:
            client.request("compile", source="x", opt="O0")
        assert "deadline_ms" not in daemon.requests[0]
