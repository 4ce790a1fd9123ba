"""The ``repro serve`` daemon: compile-as-a-service over a unix socket.

An asyncio server accepting :mod:`repro.serve.protocol` requests
(newline-delimited JSON) and serving compile / analyze / simulate
results out of the content-addressed :class:`~repro.serve.store
.ArtifactCache`, with three layers of work sharing:

1. **Cross-process cache** — the request's content address is probed
   first; a hit answers without compiling anything, including entries
   written by earlier daemon runs or plain CLI runs.  A compile hit
   sends the stored bytes with the small ``compile-reply`` entry
   beside them and unpickles no program.
2. **In-flight deduplication** — concurrent requests for the same key
   await one future; N clients compiling the same kernel trigger
   exactly one underlying compile (``serve.dedup_hits`` counts the
   coalesced ones).
3. **Batching** — the dispatcher takes the first queued miss plus every
   miss already queued behind it, with no timer, and hands them as one
   batch to :func:`repro.perf.parallel.compile_batch`, which compiles
   the distinct jobs on the batch thread and returns a verdict per job.
   Misses that queue while a batch runs form the next batch.

Responses are written per-request as they complete, so clients may
pipeline many requests over one connection.  Graceful shutdown (the
``shutdown`` op, or SIGINT/SIGTERM via :func:`serve`) stops accepting,
drains in-flight work for up to :data:`DRAIN_TIMEOUT` seconds, and
removes the socket.  The wire protocol and operational notes are
documented in docs/SERVING.md.

Degradation under stress is graceful and *typed*, never silent:

* **Admission control** — at most :data:`MAX_PENDING` artifact
  requests may wait for the compile path; excess requests are refused
  with an ``overloaded`` error carrying a ``retry_after_ms`` hint
  instead of queueing without bound.

Fault injection lives with the tests: ``tests/serve/chaos_harness.py``
subclasses :class:`Server`, overriding the two no-op seams
(:meth:`Server._checkpoint`, :meth:`Server._write_frame`) plus
``_handle_client``.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import hashlib
import os
import pickle
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import error_summary
from repro.perf.profiler import Profiler, profiled
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.serve.store import ArtifactCache, artifact_key, set_default_cache

#: Admission control: artifact requests queued for the compile path
#: before new ones are refused with ``overloaded``.
MAX_PENDING = 256
#: Seconds a graceful shutdown waits for in-flight requests.
DRAIN_TIMEOUT = 10.0


@dataclass
class ServeConfig:
    """Daemon configuration (mirrors the ``repro serve`` flags).  Store
    budgets come from the store's own environment
    (``$REPRO_CACHE_MAX_ENTRIES`` / ``$REPRO_CACHE_MAX_BYTES``)."""

    socket_path: str
    cache_dir: Optional[str] = None


class Server:
    """One daemon instance bound to a unix socket."""

    def __init__(
        self,
        config: ServeConfig,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.config = config
        self.cache = cache or ArtifactCache(root=config.cache_dir)
        from repro.perf.parallel import cache_enabled

        #: False under ``REPRO_COMPILE_CACHE=0``: memory-only serving
        #: (in-flight dedup still applies, nothing touches disk).
        self.cache_enabled = cache_enabled()
        self.profiler = Profiler()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        #: writer -> the task serving that connection
        self._connections: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._closing = False
        self._done: Optional[asyncio.Event] = None
        self._started = time.monotonic()
        self._prev_default: Optional[ArtifactCache] = None
        self._prof_cm = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._queue = asyncio.Queue()
        self._done = asyncio.Event()
        # In-process compiles (simulate's compile_with_cache) must hit
        # this store, not an environment-derived one.
        self._prev_default = set_default_cache(self.cache)
        # Everything on the loop thread (cache probes, bookkeeping)
        # counts against the daemon's own profiler.
        self._prof_cm = profiled(self.profiler)
        self._prof_cm.__enter__()
        # Probe-unlink-bind must be atomic against a second daemon
        # racing for the same path: without the lock, B can probe
        # while A holds the path bound-but-unprobed, conclude "stale",
        # and unlink A's live socket — two listeners, one orphaned
        # socket file.  An flock on <path>.lock serializes the dance.
        lock_fd = self._acquire_socket_lock()
        try:
            self._remove_stale_socket()
            self._server = await asyncio.start_unix_server(
                self._handle_client,
                path=self.config.socket_path,
                limit=protocol.MAX_LINE_BYTES,
            )
        finally:
            os.close(lock_fd)  # releases the flock
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    def _acquire_socket_lock(self) -> int:
        """An exclusive flock on ``<socket>.lock`` (never unlinked,
        so every contender always locks the same inode)."""
        import fcntl

        fd = os.open(
            self.config.socket_path + ".lock",
            os.O_CREAT | os.O_RDWR, 0o600,
        )
        deadline = time.monotonic() + 10.0
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return fd
            except OSError:
                if time.monotonic() > deadline:
                    os.close(fd)
                    raise OSError(
                        f"could not lock {self.config.socket_path!r} "
                        "for startup (another daemon is stuck mid-bind?)"
                    )
                time.sleep(0.01)

    def _remove_stale_socket(self) -> None:
        """Unlinks a leftover socket file from a crashed daemon.

        A *live* daemon on the path is detected by connecting; in that
        case startup fails instead of stealing the socket.
        """
        path = self.config.socket_path
        if not os.path.exists(path):
            return
        import socket as socket_module

        probe = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        try:
            probe.settimeout(0.25)
            probe.connect(path)
        except OSError:
            os.unlink(path)  # stale: the previous daemon died
        else:
            raise OSError(
                f"socket {path!r} already has a live daemon; "
                "shut it down first or pick another --socket"
            )
        finally:
            probe.close()

    def _checkpoint(self, phase: str) -> None:
        """A no-op seam at ``pre_cache_put`` (batch thread),
        ``mid_batch`` and ``mid_drain`` (loop thread), for fault
        injection to override."""

    def begin_shutdown(self) -> None:
        """Starts the graceful drain (idempotent, loop thread only)."""
        if self._closing:
            return
        self._closing = True
        asyncio.get_running_loop().create_task(self._shutdown())

    async def _shutdown(self) -> None:
        try:
            if self._server is not None:
                self._server.close()
            self._checkpoint("mid_drain")
            pending = [
                future for future in self._inflight.values()
                if not future.done()
            ]
            if pending:
                await asyncio.wait(
                    pending, timeout=DRAIN_TIMEOUT
                )
            if self._dispatcher is not None:
                self._dispatcher.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._dispatcher
            # A request whose compile never ran gets no answer.
            for future in self._inflight.values():
                future.cancel()
            # EOF on every connection: each handler returns on its own.
            # (Cancelling one instead makes asyncio log a traceback.)
            for writer in list(self._connections):
                writer.close()
            if self._connections:
                await asyncio.wait(list(self._connections.values()),
                                   timeout=DRAIN_TIMEOUT)
            if self._server is not None:
                # From Python 3.12 on, this waits for every connection
                # to close, so it comes after the connections close.
                await self._server.wait_closed()
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)
        finally:
            set_default_cache(self._prev_default)
            if self._prof_cm is not None:
                self._prof_cm.__exit__(None, None, None)
                self._prof_cm = None
            self._done.set()

    async def wait_done(self) -> None:
        await self._done.wait()

    # -- connection handling -----------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        self._connections[writer] = asyncio.current_task()
        write_lock = asyncio.Lock()
        line_tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError,
                        ValueError):
                    break
                if not line:
                    break
                # Each line is served concurrently so one slow compile
                # does not head-of-line block a pipelined connection.
                line_task = asyncio.create_task(
                    self._handle_line(line, writer, write_lock)
                )
                line_tasks.add(line_task)
                line_task.add_done_callback(line_tasks.discard)
            if line_tasks:
                await asyncio.gather(*line_tasks, return_exceptions=True)
        finally:
            for line_task in line_tasks:
                line_task.cancel()
            with contextlib.suppress(Exception):
                writer.close()
            del self._connections[writer]

    async def _handle_line(self, line, writer, write_lock) -> None:
        request_id: Any = None
        try:
            obj = protocol.decode_line(line)
            request_id = obj.get("id")
            request = protocol.validate_request(obj)
            response = await self._respond(request)
        except ProtocolError as exc:
            response = protocol.error_response(
                request_id, exc.code, exc.message,
                retry_after_ms=exc.retry_after_ms,
            )
        except Exception as exc:  # noqa: BLE001 - must answer the client
            response = protocol.error_response(
                request_id, "internal", error_summary(exc)
            )
        await self._send_response(writer, write_lock, response)

    async def _send_response(self, writer, write_lock, response) -> None:
        data = protocol.encode(response)
        async with write_lock:
            try:
                await self._write_frame(writer, data)
            except (ConnectionError, RuntimeError):
                pass  # client went away; nothing to tell it

    async def _write_frame(self, writer, data: bytes) -> None:
        """Writes one response frame (a seam for fault injection)."""
        writer.write(data)
        await writer.drain()

    async def _respond(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        self._count(f"serve.requests.{op}")
        if op == "ping":
            return protocol.ok_response(request["id"], {
                "pong": True,
                "version": protocol.PROTOCOL_VERSION,
                "pid": os.getpid(),
            })
        if op == "stats":
            return protocol.ok_response(request["id"], self._stats())
        if op == "shutdown":
            response = protocol.ok_response(
                request["id"], {"draining": True}
            )
            # Respond first, then drain: the caller gets its ack.
            asyncio.get_running_loop().call_soon(self.begin_shutdown)
            return response
        if self._closing:
            raise ProtocolError(
                "shutting_down",
                "daemon is draining; not accepting work",
                retry_after_ms=self._retry_after_ms(),
            )
        payload = await self._serve_artifact(request)
        return protocol.ok_response(request["id"], payload)

    def _retry_after_ms(self) -> int:
        """The hint sent with retryable refusals: a base backoff plus a
        share of the current backlog."""
        return 50 + 10 * self._queue.qsize()

    # -- artifact serving --------------------------------------------------

    def _key_for(self, request: Dict[str, Any]) -> str:
        op = request["op"]
        if op == "compile":
            # perf.parallel's own derivation: the daemon and plain CLI
            # runs share one set of entries.
            from repro.perf.parallel import cache_key

            return cache_key(request["source"], request["opt"])
        if op == "analyze":
            return self.cache.key(
                "analyze", source=request["source"],
                level=request["level"],
            )
        return self.cache.key(
            "simulate",
            source=request["source"],
            level=request["opt"],
            procs=request["procs"],
            machine=request["machine"],
            seed=request["seed"],
            memory_model=request["memory_model"],
            drain_seed=request["drain_seed"],
        )

    async def _serve_artifact(
        self, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        key = self._key_for(request)
        if self.cache_enabled:
            blob = self.cache.get_bytes(key)
            if blob is not None:
                payload = self._payload_from_blob(request, blob)
                if payload is not None:
                    payload["cached"] = True
                    payload["cache_key"] = key
                    return payload
                # Digest matched but the payload would not rebuild:
                # quarantine it so the recompile below overwrites a
                # clean slate instead of racing a poisoned entry.
                self.cache.quarantine(key)
        future = self._inflight.get(key)
        if future is not None:
            self._count("serve.dedup_hits")
        else:
            if self._queue.qsize() >= MAX_PENDING:
                self._count("serve.overloaded")
                raise ProtocolError(
                    "overloaded",
                    f"pending queue is full "
                    f"({MAX_PENDING} requests); "
                    "retry after the hinted backoff",
                    retry_after_ms=self._retry_after_ms(),
                )
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            await self._queue.put((key, request))
        # shield: one waiter's task being cancelled (a drained
        # connection) must not cancel the shared compile future out
        # from under the other waiters.
        payload = dict(await asyncio.shield(future))
        payload["cached"] = False
        payload["cache_key"] = key
        return payload

    async def _dispatch_loop(self) -> None:
        while True:
            batch: List[Tuple[str, Dict[str, Any]]] = [
                await self._queue.get()
            ]
            while not self._queue.empty():
                batch.append(self._queue.get_nowait())
            self._checkpoint("mid_batch")
            self._count("serve.batches")
            self._count("serve.batched_requests", len(batch))
            try:
                results = await asyncio.to_thread(self._run_batch, batch)
            except Exception as exc:  # noqa: BLE001 - keep dispatching
                error = ProtocolError("internal", error_summary(exc))
                results = {key: error for key, _request in batch}
            for key, outcome in results.items():
                future = self._inflight.pop(key, None)
                if future is None or future.done():
                    continue
                if isinstance(outcome, ProtocolError):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)

    # -- the batch worker (runs in a thread off the event loop) ------------

    def _run_batch(
        self, batch: List[Tuple[str, Dict[str, Any]]]
    ) -> Dict[str, Any]:
        """key -> payload dict or :class:`ProtocolError`, per request."""
        results: Dict[str, Any] = {}
        with profiled(self.profiler):
            compiles = [
                (key, request) for key, request in batch
                if request["op"] == "compile"
            ]
            if compiles:
                outcomes = self._compile([
                    (request["source"], request["opt"])
                    for _key, request in compiles
                ])
                for (key, request), outcome in zip(compiles, outcomes):
                    results[key] = self._settle(key, request, outcome)
            for key, request in batch:
                op = request["op"]
                if op == "compile":
                    continue
                run = (
                    self._run_analyze if op == "analyze"
                    else self._run_simulate
                )
                try:
                    outcome = run(request)
                except Exception as exc:  # noqa: BLE001 - typed by _settle
                    outcome = exc
                results[key] = self._settle(key, request, outcome)
        return results

    def _compile(self, jobs: List[Tuple[str, str]]) -> List[Any]:
        """A batch of store misses through
        :func:`~repro.perf.parallel.compile_batch`, a verdict per job.
        The loop thread probed the store and :meth:`_settle` does the
        put, so the batch runs with the store off.
        """
        from repro.perf.parallel import compile_batch

        return compile_batch(jobs, use_cache=False)

    def _settle(
        self, key: str, request: Dict[str, Any], outcome: Any
    ) -> Any:
        """One finished job's reply: an exception becomes a typed
        error; a value (``compile``'s program, else the payload dict)
        is pickled, stored — checkpoint, then ``put_bytes`` — and the
        payload shaped from the very bytes stored.  A compile then
        stores its ``compile-reply`` entry for the hit path."""
        if isinstance(outcome, Exception):
            code = protocol.error_code_for(outcome) or "internal"
            return ProtocolError(code, error_summary(outcome))
        blob = pickle.dumps(outcome)
        self._checkpoint("pre_cache_put")
        if self.cache_enabled:
            self.cache.put_bytes(key, blob)
        if request["op"] != "compile":
            return outcome
        fields = _reply_fields(outcome)
        if self.cache_enabled:
            self.cache.put(_reply_key(request), fields)
        return _compile_payload(fields, blob)

    def _payload_from_blob(
        self, request: Dict[str, Any], blob: bytes
    ) -> Optional[Dict[str, Any]]:
        """Rebuilds a response payload from a cached blob (None = corrupt).

        A compile blob (the pickled ``CompiledProgram``, as
        ``compile_with_cache`` writes it) is sent as stored, with the
        rest of the reply read from its ``compile-reply`` entry; only a
        missing entry (a CLI-written blob, an evicted or quarantined
        entry) costs an unpickle, and is written back.  No reply field
        depends on instruction uids, so the entry fits any writer's
        blob.  Analyze and simulate blobs are their payload dict.
        """
        if request["op"] != "compile":
            value = _unpickle(blob)
            return dict(value) if isinstance(value, dict) else None
        reply_key = _reply_key(request)
        fields = self.cache.get(reply_key)
        if fields is None:
            program = _unpickle(blob)
            if program is None:
                return None
            fields = _reply_fields(program)
            self.cache.put(reply_key, fields)
        return _compile_payload(fields, blob)

    def _run_analyze(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro import analyze_source
        from repro.analysis.delays import AnalysisLevel

        level = (
            AnalysisLevel.SAS if request["level"] == "sas"
            else AnalysisLevel.SYNC
        )
        result = analyze_source(request["source"], level)
        return {
            "level": request["level"],
            "stats": asdict(result.stats),
            "delay_edges": [
                [str(earlier), str(later)]
                for earlier, later in result.delay_edges()
            ],
        }

    def _run_simulate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.perf.parallel import compile_with_cache
        from repro.runtime.machine import (
            get_machine,
            validate_memory_model,
        )

        machine = get_machine(request["machine"])
        model = validate_memory_model(request["memory_model"])
        if model != "sc":
            machine = machine.with_memory_model(
                model, request["drain_seed"]
            )
        program = compile_with_cache(
            request["source"], request["opt"], self.cache_enabled
        )
        result = program.run(
            request["procs"], machine, seed=request["seed"]
        )
        snapshot = {
            name: list(values)
            for name, values in sorted(result.snapshot().items())
        }
        return {
            "opt": request["opt"],
            "procs": request["procs"],
            "machine": request["machine"],
            "memory_model": model,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "messages": result.total_messages,
            "snapshot": snapshot,
        }

    # -- telemetry ---------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.profiler.count(name, amount)

    def _stats(self) -> Dict[str, Any]:
        counters = dict(self.profiler.counters)
        requests = {
            name[len("serve.requests."):]: value
            for name, value in counters.items()
            if name.startswith("serve.requests.")
        }
        return {
            "version": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self._started,
            "draining": self._closing,
            "requests": requests,
            "inflight": len(self._inflight),
            "dedup_hits": counters.get("serve.dedup_hits", 0),
            "batches": counters.get("serve.batches", 0),
            "batched_requests": counters.get("serve.batched_requests", 0),
            "overloaded": counters.get("serve.overloaded", 0),
            "max_pending": MAX_PENDING,
            "cache": self.cache.stats(),
            "counters": counters,
        }


# -- payload shaping --------------------------------------------------------


def _reply_key(request: Dict[str, Any]) -> str:
    return artifact_key(
        "compile-reply", source=request["source"], level=request["opt"]
    )


def _reply_fields(program) -> Dict[str, Any]:
    """A compile reply's fields other than the artifact."""
    return {
        "opt": program.opt_level.value,
        "report": asdict(program.report),
        "delay_fences": len(program.delay_fences),
    }


def _compile_payload(fields: Dict[str, Any], blob: bytes) -> Dict[str, Any]:
    return {
        **fields,
        "artifact": base64.b64encode(blob).decode("ascii"),
        "artifact_sha256": hashlib.sha256(blob).hexdigest(),
        "artifact_bytes": len(blob),
    }


def _unpickle(blob: bytes) -> Any:
    """The unpickled blob, or None: damaged bytes raise almost any
    exception type, so every one means corrupt."""
    try:
        return pickle.loads(blob)
    except Exception:  # noqa: BLE001 - see above
        return None


# -- entry points -----------------------------------------------------------


async def serve(config: ServeConfig) -> None:
    """Runs a daemon until graceful shutdown (signal or shutdown op)."""
    import signal

    server = Server(config)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, server.begin_shutdown)
    await server.wait_done()
