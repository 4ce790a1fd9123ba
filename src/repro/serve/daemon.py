"""The ``repro serve`` daemon: compile-as-a-service over a unix socket.

An asyncio server accepting :mod:`repro.serve.protocol` requests
(newline-delimited JSON) and serving compile / analyze / simulate
results out of the content-addressed :class:`~repro.serve.store
.ArtifactCache`, with three layers of work sharing:

1. **Cross-process cache** — the request's content address is probed
   first; a hit answers without compiling anything, including entries
   written by earlier daemon runs, pool workers, or plain CLI runs.
2. **In-flight deduplication** — concurrent requests for the same key
   await one future; N clients compiling the same kernel trigger
   exactly one underlying compile (``serve.dedup_hits`` counts the
   coalesced ones).
3. **Batching onto the compile pool** — cache misses are collected for
   ``batch_window`` seconds and dispatched as one batch to
   :func:`repro.perf.parallel.compile_batch`, which fans distinct jobs
   across the crash-tolerant worker pool (``jobs`` pool width; 0/1
   compiles on the batch thread) and returns a verdict per job.

Responses are written per-request as they complete, so clients may
pipeline many requests over one connection.  Graceful shutdown (the
``shutdown`` op, or SIGINT/SIGTERM via :func:`serve`) stops accepting,
drains in-flight work for up to ``drain_timeout`` seconds, and removes
the socket.  The wire protocol and operational notes are documented in
docs/SERVING.md.

Degradation under stress is graceful and *typed*, never silent:

* **Admission control** — at most ``max_pending`` artifact requests
  may wait for the compile path; excess requests are refused with an
  ``overloaded`` error carrying a ``retry_after_ms`` hint instead of
  queueing without bound.
* **Wedged pool** — a pool worker that keeps a batch waiting past
  :func:`repro.perf.parallel.job_timeout` is killed and the batch
  finishes in-process (``compile.pool.timeouts`` /
  ``.serial_fallbacks``); the next batch gets a fresh pool.
* **Chaos hooks** — a seeded :class:`repro.serve.chaos.ServeFaultPlan`
  (the ``chaos`` config field / ``repro serve --chaos``) injects
  connection refusals, mid-frame disconnects, truncated/garbled
  frames, stalled reads, and daemon crash-at-phase faults for
  resilience drills; ``None`` (the default) is zero-overhead.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import hashlib
import os
import pickle
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.perf.profiler import Profiler, profiled
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.serve.store import (
    ArtifactCache,
    default_cache,
    set_default_cache,
)


@dataclass
class ServeConfig:
    """Daemon configuration (mirrors the ``repro serve`` flags)."""

    socket_path: str
    cache_dir: Optional[str] = None
    max_entries: Optional[int] = None
    max_bytes: Optional[int] = None
    #: Seconds a dispatch waits to coalesce further cache misses into
    #: one pool batch.  0 disables batching (dispatch immediately).
    batch_window: float = 0.002
    #: Compile-pool width for a batch (None = auto, 0/1 = in-process).
    jobs: Optional[int] = 0
    drain_timeout: float = 10.0
    #: Admission control: maximum artifact requests queued for the
    #: compile path before new ones are refused with ``overloaded``.
    max_pending: int = 256
    #: A seeded :class:`repro.serve.chaos.ServeFaultPlan` injecting
    #: transport/daemon faults (resilience drills); None = no chaos.
    chaos: Optional[Any] = None


class ChaosCrash(BaseException):
    """An injected daemon crash (chaos testing).

    A ``BaseException`` so no ``except Exception`` recovery path can
    accidentally swallow the simulated death: the daemon's event loop
    is already being torn down when this is raised.
    """

    def __init__(self, phase: str) -> None:
        self.phase = phase
        super().__init__(f"injected daemon crash at phase {phase!r}")


class Server:
    """One daemon instance bound to a unix socket."""

    def __init__(
        self,
        config: ServeConfig,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.config = config
        self.cache = cache or ArtifactCache(
            root=config.cache_dir,
            max_entries=config.max_entries,
            max_bytes=config.max_bytes,
        )
        from repro.perf.parallel import cache_enabled, job_timeout

        # A malformed $REPRO_COMPILE_TIMEOUT fails startup, not the
        # first pooled batch.
        job_timeout()
        #: False under ``REPRO_COMPILE_CACHE=0``: memory-only serving
        #: (in-flight dedup still applies, nothing touches disk).
        self.cache_enabled = cache_enabled()
        self.profiler = Profiler()
        self.chaos = config.chaos
        self._inflight: Dict[str, asyncio.Future] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._writers: set = set()
        self._closing = False
        self._crashed = False
        self._done: Optional[asyncio.Event] = None
        self._started = time.monotonic()
        self._prev_default: Optional[ArtifactCache] = None
        self._prof_cm = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._queue = asyncio.Queue()
        self._done = asyncio.Event()
        # In-process compiles (pool fallbacks, jobs=0) must hit this
        # store, not an environment-derived one.
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

    # -- injected crashes (chaos) ------------------------------------------

    def _maybe_crash(self, phase: str) -> None:
        """Raises :class:`ChaosCrash` if the fault plan says to die here.

        Callable from the loop thread or a batch thread.  The crash is
        abrupt by design: the listener and every open connection are
        torn down and the loop stopped, with no drain and no socket
        unlink — exactly what a SIGKILL'd daemon leaves behind.
        """
        if self.chaos is None or not self.chaos.crash_at(phase):
            return
        self._count(f"serve.chaos.crash.{phase}")
        self.crash()
        raise ChaosCrash(phase)

    def crash(self) -> None:
        """Abrupt death: abort connections, close the listener, stop
        the loop.  Thread-safe and idempotent."""
        if self._crashed:
            return
        self._crashed = True
        loop = self._loop

        def abort() -> None:
            if self._server is not None:
                self._server.close()
            for writer in list(self._writers):
                with contextlib.suppress(Exception):
                    writer.transport.abort()
            loop.stop()

        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(abort)

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
                await self._server.wait_closed()
            self._maybe_crash("mid_drain")
            pending = [
                future for future in self._inflight.values()
                if not future.done()
            ]
            if pending:
                await asyncio.wait(
                    pending, timeout=self.config.drain_timeout
                )
            if self._dispatcher is not None:
                self._dispatcher.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._dispatcher
            for task in list(self._conn_tasks):
                task.cancel()
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
        if self.chaos is not None and self.chaos.refuse_connection():
            # Injected connection refusal: hang up before reading a
            # byte, the way an out-of-fds or dying daemon would.
            self._count("serve.chaos.refused")
            with contextlib.suppress(Exception):
                writer.close()
            return
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
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
            self._writers.discard(writer)
            self._conn_tasks.discard(task)

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
                request_id, "internal", str(exc).splitlines()[0]
            )
        await self._send_response(writer, write_lock, response)

    async def _send_response(self, writer, write_lock, response) -> None:
        """Writes one response frame, with chaos-injected transport
        faults (stalls, truncation, garbling, disconnects) applied."""
        data = protocol.encode(response)
        action = "deliver"
        if self.chaos is not None:
            action, arg = self.chaos.response_action(len(data))
        async with write_lock:
            try:
                if action == "stall":
                    # A stalled read from the client's point of view:
                    # the frame arrives, but late.
                    self._count("serve.chaos.stalled")
                    await asyncio.sleep(arg)
                elif action == "disconnect":
                    # Mid-frame disconnect, zero bytes delivered.
                    self._count("serve.chaos.disconnected")
                    writer.transport.abort()
                    return
                elif action == "truncate":
                    # Partial frame, then a hard cut: the client must
                    # treat the half-line as a transport failure.
                    self._count("serve.chaos.truncated")
                    writer.write(data[: max(1, int(arg))])
                    await writer.drain()
                    writer.transport.abort()
                    return
                elif action == "garble":
                    # Flip bytes inside the frame (newline preserved):
                    # the client sees undecodable JSON.
                    self._count("serve.chaos.garbled")
                    data = self.chaos.garble_frame(data)
                writer.write(data)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # client went away; nothing to tell it

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
        """The hint sent with retryable refusals: roughly one batch
        window plus a share of the current backlog."""
        backlog = self._queue.qsize() if self._queue is not None else 0
        return int(self.config.batch_window * 1000) + 50 + 10 * backlog

    # -- artifact serving --------------------------------------------------

    def _key_for(self, request: Dict[str, Any]) -> str:
        op = request["op"]
        if op == "compile":
            # perf.parallel's own derivation: daemon, pool workers and
            # plain CLI runs share one set of entries.
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
                payload = _payload_from_blob(request["op"], blob)
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
            if (
                self.config.max_pending
                and self._queue.qsize() >= self.config.max_pending
            ):
                self._count("serve.overloaded")
                raise ProtocolError(
                    "overloaded",
                    f"pending queue is full "
                    f"({self.config.max_pending} requests); "
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
            first = await self._queue.get()
            batch: List[Tuple[str, Dict[str, Any]]] = [first]
            if self.config.batch_window > 0:
                loop = asyncio.get_running_loop()
                deadline = loop.time() + self.config.batch_window
                while True:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(await asyncio.wait_for(
                            self._queue.get(), remaining
                        ))
                    except asyncio.TimeoutError:
                        break
            try:
                self._maybe_crash("mid_batch")
                self._count("serve.batches")
                self._count("serve.batched_requests", len(batch))
                results = await asyncio.to_thread(self._run_batch, batch)
            except ChaosCrash:
                # crash() has already torn the loop down; swallowing
                # here just keeps the dead dispatcher task quiet.
                return
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
                for (key, _request), outcome in zip(compiles, outcomes):
                    results[key] = self._settle(key, "compile", outcome)
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
                results[key] = self._settle(key, op, outcome)
        return results

    def _compile(self, jobs: List[Tuple[str, str]]) -> List[Any]:
        """A batch of store misses through
        :func:`~repro.perf.parallel.compile_batch`, a verdict per job.
        The loop thread probed the store and :meth:`_settle` does the
        put, so the batch runs with the store off.  A wedged or dead
        pool worker is the pool's to handle: it records the fault on the
        active profiler — ours — and rescues the batch in-process.
        """
        from repro.perf.parallel import compile_batch

        job_fn = None
        if self.chaos is not None:
            job_fn = self.chaos.wedged_job()
            if job_fn is not None:
                self._count("serve.chaos.wedged")
        return compile_batch(jobs, self.config.jobs, False, job_fn)

    def _settle(self, key: str, op: str, outcome: Any) -> Any:
        """One finished job's reply: an exception becomes a typed
        error; a value (``compile``'s program, else the payload dict)
        is pickled, stored — crash hook, then ``put_bytes`` — and the
        payload shaped from the very bytes stored."""
        if isinstance(outcome, Exception):
            code = protocol.error_code_for(outcome) or "internal"
            return ProtocolError(code, str(outcome).splitlines()[0])
        blob = pickle.dumps(outcome)
        self._maybe_crash("pre_cache_put")
        if self.cache_enabled:
            self.cache.put_bytes(key, blob)
        return _compile_payload(outcome, blob) if op == "compile" \
            else outcome

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
            "max_pending": self.config.max_pending,
            "cache": self.cache.stats(),
            "counters": counters,
        }


# -- payload shaping --------------------------------------------------------


def _compile_payload(program, blob: bytes) -> Dict[str, Any]:
    return {
        "opt": program.opt_level.value,
        "report": asdict(program.report),
        "delay_fences": len(program.delay_fences),
        "artifact": base64.b64encode(blob).decode("ascii"),
        "artifact_sha256": hashlib.sha256(blob).hexdigest(),
        "artifact_bytes": len(blob),
    }


def _payload_from_blob(op: str, blob: bytes) -> Optional[Dict[str, Any]]:
    """Rebuilds a response payload from a cached blob (None = corrupt).

    Compile entries store the pickled ``CompiledProgram`` itself — the
    exact bytes ``compile_with_cache`` and the pool workers write — so
    the served artifact is byte-identical to the stored one.  Analyze
    and simulate entries store their (JSON-able) payload dict pickled.
    """
    try:
        value = pickle.loads(blob)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError):
        return None
    if op == "compile":
        return _compile_payload(value, blob)
    return dict(value) if isinstance(value, dict) else None


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


class ServerThread:
    """A daemon on a background thread (tests, benches, embedding).

    ``start()`` blocks until the socket is accepting; ``stop()`` drains
    gracefully; ``kill()`` stops the event loop abruptly — the
    simulated daemon crash (no drain, no socket cleanup) the restart
    tests recover from.
    """

    def __init__(
        self,
        config: ServeConfig,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.config = config
        self._cache = cache
        self.server: Optional[Server] = None
        self.error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("repro serve thread failed to start")
        if self.error is not None:
            raise self.error
        return self

    def _run(self) -> None:
        previous = default_cache()
        try:
            asyncio.run(self._main())
        except RuntimeError:
            # loop.stop() via kill(): asyncio.run aborts mid-future.
            pass
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self.error = exc
        finally:
            set_default_cache(previous)
            self._ready.set()

    async def _main(self) -> None:
        self.server = Server(self.config, cache=self._cache)
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.wait_done()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.server.begin_shutdown)
        self._thread.join(timeout)

    def kill(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        # A real crash closes the listening fd with the process; here
        # the process survives, so close it by hand — through the
        # socket object, or its finalizer would later close the same fd
        # *number* under whoever reuses it.  The socket *file* is
        # deliberately left behind for stale-socket recovery tests.
        if self.server is not None and self.server._server is not None:
            for sock in self.server._server.sockets:
                with contextlib.suppress(OSError):
                    sock._sock.close()
