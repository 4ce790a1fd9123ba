"""Synchronous, fault-tolerant client for the ``repro serve`` daemon.

A blocking wrapper over the newline-delimited JSON protocol::

    from repro.serve import ServeClient

    with ServeClient("/tmp/repro.sock") as client:
        client.ping()
        result = client.compile(SOURCE, opt="O3")
        program, meta = client.compiled_program(SOURCE, opt="O3")
        print(client.stats()["cache"]["hit_rate"])

Resilience model
================

Every serve op is **idempotent**: the daemon addresses work by the
request's content (the artifact key), so replaying a request can only
re-read or re-fill the same cache entry — which makes blanket retry
safe.  On top of that the client layers:

* **Split timeouts** — ``connect_timeout`` bounds the dial,
  ``timeout`` bounds each request/response round trip.
* **Typed transport errors** — a refused dial, a dropped connection,
  a truncated or garbled frame, or a response-id mismatch all raise
  :class:`ServeError` with code ``transport`` (never a bare OSError,
  never a wrong answer).  The connection is torn down first, so a late
  straggler frame can never be mis-correlated with a later request.
* **Bounded retries with decorrelated jitter** —
  :class:`RetryPolicy` retries ``transport`` / ``shutting_down`` /
  ``overloaded`` failures, honoring the server's ``retry_after_ms``
  hint when one is sent.  The request id is stable across attempts of
  one logical request.
* **A circuit breaker** — after ``failure_threshold`` consecutive
  transport-level failures the breaker opens and requests fail fast
  with code ``circuit_open`` until ``reset_timeout`` elapses
  (half-open probe, closing again on the first success).
* **Deadline propagation** — ``deadline_ms`` (protocol v2) rides on
  compile/analyze/simulate requests so the daemon can shed work whose
  client has given up; the daemon answers ``deadline_exceeded``.

This class optimizes for robustness and clarity, not throughput.
"""

from __future__ import annotations

import base64
import json
import pickle
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.serve import protocol

#: Error codes a retry may fix: the daemon never started the work
#: (refused/overloaded/draining) or the answer was lost in transit.
RETRYABLE_CODES = frozenset(
    {"transport", "shutting_down", "overloaded"}
)

#: deadline_ms rides only on ops that accept it (protocol v2).
_DEADLINE_OPS = frozenset({"compile", "analyze", "simulate"})


class ServeError(ReproError):
    """An error response from the daemon, or a client-side failure.

    ``code`` is one of :data:`repro.serve.protocol.ERROR_CODES` (the
    daemon answered with an error) or
    :data:`repro.serve.protocol.CLIENT_ERROR_CODES` (``transport``:
    the daemon never answered; ``circuit_open``: the client refused to
    try).  ``retry_after_ms`` carries the server's backoff hint when
    one was sent.
    """

    def __init__(
        self,
        code: str,
        message: str,
        retry_after_ms: Optional[int] = None,
    ) -> None:
        self.code = code
        self.message = message
        self.retry_after_ms = retry_after_ms
        super().__init__(f"[{code}] {message}")

    @property
    def retryable(self) -> bool:
        return self.code in RETRYABLE_CODES


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with decorrelated-jitter exponential backoff.

    The delay before attempt *n+1* is drawn uniformly from
    ``[base_delay, 3 * previous_delay]`` and capped at ``max_delay``
    (the "decorrelated jitter" strategy: grows like exponential
    backoff on average, but desynchronizes a thundering herd of
    retrying clients).  A server ``retry_after_ms`` hint acts as a
    floor on the drawn delay.  ``max_attempts=1`` disables retry.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0

    def next_delay(
        self, previous: float, rng: random.Random
    ) -> float:
        low = self.base_delay
        high = max(low, 3.0 * (previous or low))
        return min(self.max_delay, rng.uniform(low, high))


class CircuitBreaker:
    """Fail fast after repeated daemon loss (closed → open → half-open).

    Counts *consecutive* transport-level failures; at
    ``failure_threshold`` the breaker opens and :meth:`allow` answers
    False until ``reset_timeout`` seconds pass, after which one probe
    request is let through (half-open).  A success closes the breaker
    and resets the count; a failure re-opens it for another full
    ``reset_timeout``.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = "closed"
        self.failures = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        if self.state == "open":
            if (
                time.monotonic() - self._opened_at
                >= self.reset_timeout
            ):
                self.state = "half_open"
                return True
            return False
        return True  # closed or half-open probe

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1
        if (
            self.state == "half_open"
            or self.failures >= self.failure_threshold
        ):
            self.state = "open"
            self._opened_at = time.monotonic()


class ServeClient:
    def __init__(
        self,
        socket_path: str,
        timeout: float = 120.0,
        connect_timeout: float = 5.0,
        deadline_ms: int = 0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        retry_seed: Optional[int] = None,
    ) -> None:
        self.socket_path = socket_path
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        #: default per-request deadline propagated to the daemon for
        #: artifact ops (0 = none); per-call params override it.
        self.deadline_ms = deadline_ms
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self._rng = random.Random(retry_seed)
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0

    # -- connection --------------------------------------------------------

    def connect(self) -> "ServeClient":
        if self._sock is not None:
            return self
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.connect_timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise ServeError(
                "transport",
                f"cannot connect to {self.socket_path!r}: {exc}",
            ) from exc
        sock.settimeout(self.timeout)
        self._sock = sock
        self._file = sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the protocol ------------------------------------------------------

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """Sends one request (with retries), returns its ``result``.

        Raises :class:`ServeError` with the daemon's error code on an
        error response, ``transport`` when the daemon never answered,
        and ``circuit_open`` when the breaker is failing fast.
        Retryable failures (:data:`RETRYABLE_CODES`) are retried up to
        ``retry.max_attempts`` times with decorrelated-jitter backoff
        before the last error propagates.
        """
        if (
            op in _DEADLINE_OPS
            and self.deadline_ms > 0
            and "deadline_ms" not in params
        ):
            params["deadline_ms"] = self.deadline_ms
        self._next_id += 1
        request_id = self._next_id
        delay = 0.0
        last_error: Optional[ServeError] = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                delay = self.retry.next_delay(delay, self._rng)
                if last_error.retry_after_ms is not None:
                    delay = max(
                        delay, last_error.retry_after_ms / 1000.0
                    )
                time.sleep(delay)
            if not self.breaker.allow():
                raise ServeError(
                    "circuit_open",
                    f"circuit breaker is open after "
                    f"{self.breaker.failures} consecutive transport "
                    f"failures; retry after "
                    f"{self.breaker.reset_timeout:g}s",
                )
            try:
                result = self._attempt(request_id, op, params)
            except ServeError as exc:
                if exc.code == "transport":
                    self.breaker.record_failure()
                if not exc.retryable:
                    raise
                last_error = exc
                continue
            self.breaker.record_success()
            return result
        raise last_error

    def _attempt(
        self, request_id: int, op: str, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        """One wire round trip; transport faults tear the connection
        down before raising so a straggler frame from this attempt can
        never be read as the answer to a later request."""
        self.connect()
        line = protocol.encode(
            {"id": request_id, "op": op, **params}
        )
        try:
            self._file.write(line)
            self._file.flush()
            raw = self._file.readline()
        except OSError as exc:
            self.close()
            raise ServeError(
                "transport", f"transport failure: {exc}"
            ) from exc
        if not raw:
            self.close()
            raise ServeError(
                "transport", "daemon closed the connection"
            )
        if not raw.endswith(b"\n"):
            # A frame cut mid-line: the daemon died (or chaos struck)
            # while writing.  Never trust a partial frame.
            self.close()
            raise ServeError(
                "transport", "connection dropped mid-frame"
            )
        try:
            response = protocol.validate_response(
                json.loads(raw.decode("utf-8"))
            )
        except (UnicodeDecodeError, json.JSONDecodeError,
                protocol.ProtocolError) as exc:
            self.close()
            raise ServeError(
                "transport", f"garbled response frame: {exc}"
            ) from exc
        if response.get("id") != request_id:
            self.close()
            raise ServeError(
                "transport",
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}",
            )
        if not response["ok"]:
            error = response["error"]
            raise ServeError(
                error["code"],
                error["message"],
                retry_after_ms=error.get("retry_after_ms"),
            )
        return response["result"]

    # -- convenience wrappers ----------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    def compile(self, source: str, opt: str = "O3") -> Dict[str, Any]:
        return self.request("compile", source=source, opt=opt)

    def analyze(
        self, source: str, level: str = "sync"
    ) -> Dict[str, Any]:
        return self.request("analyze", source=source, level=level)

    def simulate(self, source: str, **params: Any) -> Dict[str, Any]:
        return self.request("simulate", source=source, **params)

    def compiled_program(
        self, source: str, opt: str = "O3"
    ) -> Tuple[Any, Dict[str, Any]]:
        """(CompiledProgram, result meta) — unpickles the artifact."""
        result = self.compile(source, opt=opt)
        blob = base64.b64decode(result["artifact"])
        return pickle.loads(blob), result
