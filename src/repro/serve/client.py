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

``timeout`` is the one bound on waiting for an answer: the daemon
holds no per-request deadline of its own.

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

#: Read buffer: a compile reply (~70 KB) is one read, not nine of 8 KiB.
READ_BUFFER_BYTES = 256 * 1024


class ServeError(ReproError):
    """An error response from the daemon, or a client-side failure.

    ``code`` is one of :data:`repro.serve.protocol.ERROR_CODES` (the
    daemon answered with an error) or
    :data:`repro.serve.protocol.CLIENT_ERROR_CODES` (``transport``:
    the daemon never answered).  ``retry_after_ms`` carries the server's backoff hint when
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

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )

    def next_delay(
        self, previous: float, rng: random.Random
    ) -> float:
        low = self.base_delay
        high = max(low, 3.0 * (previous or low))
        return min(self.max_delay, rng.uniform(low, high))


class ServeClient:
    def __init__(
        self,
        socket_path: str,
        timeout: float = 120.0,
        connect_timeout: float = 5.0,
        retry: Optional[RetryPolicy] = None,
        retry_seed: Optional[int] = None,
    ) -> None:
        self.socket_path = socket_path
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retry = retry or RetryPolicy()
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
        self._file = sock.makefile("rwb", buffering=READ_BUFFER_BYTES)
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
        error response, ``transport`` when the daemon never answered.
        Retryable failures (:data:`RETRYABLE_CODES`) are retried up to
        ``retry.max_attempts`` times with decorrelated-jitter backoff
        before the last error propagates.
        """
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
            try:
                return self._attempt(request_id, op, params)
            except ServeError as exc:
                if not exc.retryable:
                    raise
                last_error = exc
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
        if response.get("id") is None and not response["ok"]:
            # Sent before the daemon could read this line's id (a line
            # over MAX_LINE_BYTES); the daemon closes the connection.
            self.close()
        elif response.get("id") != request_id:
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
