"""Compile-as-a-service: the ``repro serve`` daemon and its substrate.

* :mod:`repro.serve.store` — the content-addressed, sharded, LRU
  artifact store every compile entry point shares
  (:class:`ArtifactCache`), with sha256 digest verification and
  quarantine of corrupt entries;
* :mod:`repro.serve.protocol` — the newline-delimited JSON wire
  protocol (spec: docs/SERVING.md);
* :mod:`repro.serve.daemon` — the asyncio unix-socket daemon with
  in-flight request deduplication, pool batching, admission control,
  deadline enforcement, and a wedged-pool watchdog;
* :mod:`repro.serve.client` — the blocking Python client with split
  timeouts, retries with decorrelated jitter, and a circuit breaker;
* :mod:`repro.serve.chaos` — seeded fault injection for the stack
  (:class:`ServeFaultPlan`, the ``repro serve --chaos`` plan).
"""

from repro.serve.chaos import ChaosCrash, ServeFaultPlan
from repro.serve.client import (
    CircuitBreaker,
    RetryPolicy,
    ServeClient,
    ServeError,
)
from repro.serve.daemon import (
    ServeConfig,
    Server,
    ServerThread,
    serve,
)
from repro.serve.protocol import (
    CLIENT_ERROR_CODES,
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.serve.store import (
    ArtifactCache,
    artifact_key,
    code_fingerprint,
    default_cache,
    set_default_cache,
)

__all__ = [
    "ArtifactCache",
    "CLIENT_ERROR_CODES",
    "ChaosCrash",
    "CircuitBreaker",
    "ERROR_CODES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeFaultPlan",
    "Server",
    "ServerThread",
    "artifact_key",
    "code_fingerprint",
    "default_cache",
    "serve",
    "set_default_cache",
]
