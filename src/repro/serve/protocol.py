"""The ``repro serve`` wire protocol: newline-delimited JSON.

One request per line, one response per line, UTF-8, over a local unix
socket.  Requests carry a client-chosen ``id`` that the matching
response echoes, so clients may pipeline many requests over one
connection and correlate the (possibly reordered) responses.

The full schema — field tables, every error code, worked examples — is
specified in docs/SERVING.md; ``tests/serve/test_docs_sync.py``
round-trips every example in that document through this module, so the
spec and the implementation cannot drift apart.

Request::

    {"id": 1, "op": "compile", "source": "...", "opt": "O3"}

Response (one of)::

    {"id": 1, "ok": true, "result": {...}}
    {"id": 1, "ok": false, "error": {"code": "...", "message": "..."}}
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Bumped whenever a request field or error code changes.
PROTOCOL_VERSION = 3

#: A line longer than this is rejected with ``bad_request`` rather than
#: buffered without bound (compiled-artifact responses stay well under).
MAX_LINE_BYTES = 64 * 1024 * 1024

OPS = ("ping", "stats", "shutdown", "compile", "analyze", "simulate")

ERROR_CODES = (
    "parse_error",        # the request line was not valid JSON
    "bad_request",        # valid JSON, but not a valid request
    "compile_error",      # the source failed to lex/parse/check/compile
    "runtime_fault",      # the simulation raised a RuntimeFault
    "deadlock",           # the simulation deadlocked
    "shutting_down",      # the daemon is draining; retry elsewhere/later
    "overloaded",         # admission control: pending queue full
    "internal",           # unexpected server-side failure
)

#: Client-side error codes :class:`repro.serve.client.ServeError` may
#: carry in addition to the wire codes above: they describe failures
#: the daemon never got to answer.
CLIENT_ERROR_CODES = (
    "transport",  # connect/read/write failed or the frame was garbled
)

#: Per-op required and optional fields (optional ones with defaults).
_REQUIRED: Dict[str, tuple] = {
    "ping": (),
    "stats": (),
    "shutdown": (),
    "compile": ("source",),
    "analyze": ("source",),
    "simulate": ("source",),
}
_OPTIONAL: Dict[str, Dict[str, Any]] = {
    "ping": {},
    "stats": {},
    "shutdown": {},
    "compile": {"opt": "O3"},
    "analyze": {"level": "sync"},
    "simulate": {
        "opt": "O3",
        "procs": 8,
        "machine": "cm5",
        "seed": 0,
        "memory_model": "sc",
        "drain_seed": 0,
    },
}


class ProtocolError(Exception):
    """A malformed request/response, tagged with its wire error code.

    ``retry_after_ms`` is the optional server hint for retryable codes
    (``overloaded``, ``shutting_down``): how long a client should wait
    before trying again.
    """

    def __init__(
        self,
        code: str,
        message: str,
        retry_after_ms: Optional[int] = None,
    ) -> None:
        assert code in ERROR_CODES, code
        self.code = code
        self.message = message
        self.retry_after_ms = retry_after_ms
        super().__init__(f"[{code}] {message}")


def encode(obj: Dict[str, Any]) -> bytes:
    """One wire line: canonical JSON plus the terminating newline."""
    return json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "bad_request",
            f"line exceeds {MAX_LINE_BYTES} bytes",
        )
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("parse_error", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            "bad_request", "a request must be a JSON object"
        )
    return obj


def validate_request(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Checks shape, fills defaults; raises :class:`ProtocolError`.

    Returns a normalized copy: ``id``, ``op``, and every field the op
    understands (unknown fields are rejected — a typo'd parameter must
    not silently fall back to a default).
    """
    op = obj.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(
            "bad_request",
            f"unknown op {op!r}; expected one of {', '.join(OPS)}",
        )
    request: Dict[str, Any] = {"id": obj.get("id"), "op": op}
    known = set(_REQUIRED[op]) | set(_OPTIONAL[op]) | {"id", "op"}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ProtocolError(
            "bad_request",
            f"unknown field(s) for op {op!r}: {', '.join(unknown)}",
        )
    for field in _REQUIRED[op]:
        value = obj.get(field)
        if not isinstance(value, str) or not value:
            raise ProtocolError(
                "bad_request",
                f"op {op!r} requires a non-empty string {field!r}",
            )
        request[field] = value
    for field, default in _OPTIONAL[op].items():
        value = obj.get(field, default)
        if not isinstance(value, type(default)) or isinstance(value, bool):
            raise ProtocolError(
                "bad_request",
                f"field {field!r} must be a "
                f"{type(default).__name__}, got {value!r}",
            )
        request[field] = value
    return request


def ok_response(
    request_id: Any, result: Dict[str, Any]
) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any,
    code: str,
    message: str,
    retry_after_ms: Optional[int] = None,
) -> Dict[str, Any]:
    assert code in ERROR_CODES, code
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = int(retry_after_ms)
    return {"id": request_id, "ok": False, "error": error}


def validate_response(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Checks a decoded response's shape (client side and doc tests)."""
    if "ok" not in obj or not isinstance(obj["ok"], bool):
        raise ProtocolError(
            "bad_request", "a response must carry a boolean 'ok'"
        )
    if obj["ok"]:
        if not isinstance(obj.get("result"), dict):
            raise ProtocolError(
                "bad_request", "an ok response must carry a 'result' object"
            )
    else:
        error = obj.get("error")
        if (
            not isinstance(error, dict)
            or error.get("code") not in ERROR_CODES
            or not isinstance(error.get("message"), str)
        ):
            raise ProtocolError(
                "bad_request",
                "an error response must carry {'code': <known code>, "
                "'message': str}",
            )
        retry_after = error.get("retry_after_ms")
        if retry_after is not None and (
            isinstance(retry_after, bool)
            or not isinstance(retry_after, int)
            or retry_after < 0
        ):
            raise ProtocolError(
                "bad_request",
                "retry_after_ms must be a non-negative integer",
            )
    return obj


def error_code_for(exc: BaseException) -> Optional[str]:
    """The wire error code for a repro exception, or None (internal)."""
    from repro.errors import (
        AnalysisError,
        CodegenError,
        DeadlockError,
        RuntimeFault,
        SourceError,
    )

    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, RuntimeFault):
        return "runtime_fault"
    if isinstance(exc, (SourceError, AnalysisError, CodegenError)):
        return "compile_error"
    if isinstance(exc, (ValueError, KeyError)):
        # get_machine / OptLevel / validate_memory_model rejections.
        return "bad_request"
    return None
