"""Compile-as-a-service: the ``repro serve`` daemon and its substrate.

* :mod:`repro.serve.store` — the content-addressed, sharded, LRU
  artifact store every compile entry point shares
  (:class:`ArtifactCache`): one self-verifying file per entry (a
  sha256 header, then the blob: the reply the entry answers, in
  :mod:`repro.perf.parallel`'s format) and quarantine of corrupt
  entries;
* :mod:`repro.serve.protocol` — the newline-delimited JSON wire
  protocol (spec: docs/SERVING.md);
* :mod:`repro.serve.daemon` — the asyncio unix-socket daemon with
  in-flight request deduplication, miss batching and admission
  control;
* :mod:`repro.serve.client` — the blocking Python client with split
  timeouts and retries with decorrelated jitter.

Seeded fault injection (the chaos oracle) is test code:
``tests/serve/chaos_harness.py``.
"""

from repro.serve.client import (
    RetryPolicy,
    ServeClient,
    ServeError,
)
from repro.serve.daemon import ServeConfig, Server, serve
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
    "ERROR_CODES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "Server",
    "artifact_key",
    "code_fingerprint",
    "default_cache",
    "serve",
    "set_default_cache",
]
