"""Seeded fault injection for the serve stack, and a supervised daemon.

The chaos oracle (``test_chaos.py``) drives the real daemon through
the faults a deployment meets — unix sockets, the daemon's lifecycle
and the on-disk artifact store — from a
:class:`ServeFaultPlan`, a deterministic function of one seed:
identical (plan, workload) pairs replay the exact same fault schedule,
so every chaos failure is a one-command repro.

:class:`ChaosServer` is a :class:`repro.serve.daemon.Server` that acts
on a plan through the daemon's own seams: ``_checkpoint`` (crashes),
``_write_frame`` (transport faults) and ``_handle_client``
(refusals).  :class:`ServerThread` runs any server on a
background thread; :class:`ChaosHarness` supervises one under chaos.

Fault classes
=============

* **Transport** — connection refusals before the first byte,
  mid-frame disconnects, truncated frames (a prefix then a hard cut),
  garbled frames (bytes flipped inside the JSON), stalled reads (the
  frame arrives late).  The resilient client must map every one to a
  typed ``transport`` error and retry.
* **Daemon crash-at-phase** — the daemon dies abruptly (no drain, no
  socket unlink) at ``pre_cache_put``, ``mid_batch`` or ``mid_drain``,
  exactly what SIGKILL leaves behind; :class:`ChaosHarness` restarts
  it.
* **Store rot** — entries on disk are bit-flipped or truncated between
  requests; the store's header check must quarantine them.

Faults *heal*: after :meth:`ServeFaultPlan.heal_now` (or
``heal_after`` seconds from :meth:`ServeFaultPlan.start_clock`) every
probability reads as zero, which is how the chaos oracle asserts
convergence — once the weather clears, the same workload must reach a
100% cache hit rate.
"""

import asyncio
import contextlib
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.daemon import ServeConfig, Server
from repro.serve.store import (
    ArtifactCache,
    default_cache,
    set_default_cache,
)

#: The daemon phases an injected crash may target.
CRASH_PHASES = ("pre_cache_put", "mid_batch", "mid_drain")


class ChaosCrash(BaseException):
    """An injected daemon crash.

    A ``BaseException`` so no ``except Exception`` recovery path can
    accidentally swallow the simulated death: the daemon's event loop
    is already being torn down when this is raised.
    """

    def __init__(self, phase: str) -> None:
        self.phase = phase
        super().__init__(f"injected daemon crash at phase {phase!r}")


@dataclass
class ServeFaultPlan:
    """A seeded, deterministic description of what the serve stack
    breaks.

    Every probability applies per event (per connection, per response
    frame, per batch, per store sweep); all randomness comes from one
    lock-guarded RNG seeded with ``seed``, shared safely between the
    daemon's event loop and its batch threads.  While healed (see
    module docs) every draw reports "no fault".
    """

    refuse: float = 0.0
    disconnect: float = 0.0
    truncate: float = 0.0
    garble: float = 0.0
    stall: float = 0.0
    stall_seconds: float = 0.05
    #: phase -> crash probability (see :data:`CRASH_PHASES`)
    crash: Dict[str, float] = field(default_factory=dict)
    corrupt_blob: float = 0.0
    truncate_blob: float = 0.0
    #: seconds after :meth:`start_clock` at which faults stop firing
    #: (0 = only :meth:`heal_now` heals).
    heal_after: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for phase in self.crash:
            if phase not in CRASH_PHASES:
                raise ValueError(
                    f"unknown crash phase {phase!r}; expected one of "
                    f"{', '.join(CRASH_PHASES)}"
                )
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._healed = False
        self._clock_start: Optional[float] = None

    # -- healing -----------------------------------------------------------

    def start_clock(self) -> None:
        """Arms ``heal_after`` (no-op when it is 0)."""
        self._clock_start = time.monotonic()

    def heal_now(self) -> None:
        """All faults off, permanently, from this call on."""
        self._healed = True

    @property
    def healed(self) -> bool:
        if self._healed:
            return True
        if self.heal_after > 0 and self._clock_start is not None:
            if time.monotonic() - self._clock_start >= self.heal_after:
                self._healed = True
        return self._healed

    def _roll(self, probability: float) -> bool:
        if probability <= 0.0 or self.healed:
            return False
        with self._lock:
            return self._rng.random() < probability

    # -- daemon-side queries -----------------------------------------------

    def refuse_connection(self) -> bool:
        return self._roll(self.refuse)

    def response_action(self, frame_bytes: int) -> Tuple[str, Any]:
        """What to do with one response frame.

        Returns ``(action, arg)`` where action is one of ``deliver``,
        ``stall`` (arg = seconds), ``disconnect``, ``truncate`` (arg =
        bytes of prefix to deliver) or ``garble``.  At most one fault
        fires per frame, checked in that order.
        """
        if self._roll(self.stall):
            return "stall", self.stall_seconds
        if self._roll(self.disconnect):
            return "disconnect", 0
        if self._roll(self.truncate):
            with self._lock:
                cut = self._rng.randrange(1, max(2, frame_bytes))
            return "truncate", cut
        if self._roll(self.garble):
            return "garble", 0
        return "deliver", 0

    def garble_frame(self, data: bytes) -> bytes:
        """Flips a few bytes inside the frame, newline preserved, so
        the client reads a complete but undecodable line."""
        if len(data) <= 1:
            return data
        body = bytearray(data[:-1])
        with self._lock:
            flips = self._rng.randrange(1, 4)
            for _ in range(flips):
                index = self._rng.randrange(len(body))
                body[index] ^= 0xFF
        return bytes(body) + data[-1:]

    def crash_at(self, phase: str) -> bool:
        return self._roll(self.crash.get(phase, 0.0))

    # -- store-side queries (driven by the harness) ------------------------

    def blob_fault(self) -> Optional[str]:
        """``"corrupt"``, ``"truncate"`` or None, for one stored entry."""
        if self._roll(self.corrupt_blob):
            return "corrupt"
        if self._roll(self.truncate_blob):
            return "truncate"
        return None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_seed(cls, seed: int) -> "ServeFaultPlan":
        """A randomized-but-deterministic fault mixture for one seed.

        The chaos oracle runs hundreds of these: each seed picks a
        different subset of fault classes at rates harsh enough to
        fire many times per workload yet bounded enough that a
        retrying client always converges.
        """
        rng = random.Random(0xC4A05 ^ seed)
        kwargs: Dict[str, Any] = {"seed": seed}
        transport = ["refuse", "disconnect", "truncate", "garble"]
        for name in rng.sample(transport, rng.randint(1, 3)):
            kwargs[name] = rng.uniform(0.02, 0.15)
        if rng.random() < 0.5:
            kwargs["stall"] = rng.uniform(0.02, 0.1)
            kwargs["stall_seconds"] = rng.uniform(0.005, 0.03)
        if rng.random() < 0.45:
            phase = rng.choice(list(CRASH_PHASES))
            kwargs["crash"] = {phase: rng.uniform(0.005, 0.03)}
        if rng.random() < 0.5:
            kwargs["corrupt_blob"] = rng.uniform(0.05, 0.25)
        if rng.random() < 0.3:
            kwargs["truncate_blob"] = rng.uniform(0.05, 0.2)
        return cls(**kwargs)

    def describe(self) -> str:
        """A compact summary for logs and repro bundles."""
        parts: List[str] = []
        for name in ("refuse", "disconnect", "truncate", "garble"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value:g}")
        if self.stall:
            parts.append(f"stall={self.stall:g}:{self.stall_seconds:g}")
        for phase in CRASH_PHASES:
            prob = self.crash.get(phase, 0.0)
            if prob:
                parts.append(f"crash.{phase}={prob:g}")
        if self.corrupt_blob:
            parts.append(f"corrupt_blob={self.corrupt_blob:g}")
        if self.truncate_blob:
            parts.append(f"truncate_blob={self.truncate_blob:g}")
        if self.heal_after:
            parts.append(f"heal_after={self.heal_after:g}")
        if not parts:
            parts.append("no-faults")
        return ",".join(parts)


class ChaosServer(Server):
    """A daemon that injects the faults of a :class:`ServeFaultPlan`.

    Counts each injected fault as ``serve.chaos.*`` on the daemon's
    profiler, so the ``stats`` op shows what fired.
    """

    def __init__(
        self,
        config: ServeConfig,
        plan: ServeFaultPlan,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        super().__init__(config, cache=cache)
        self.plan = plan
        self._crashed = False

    # -- crashes -----------------------------------------------------------

    def _checkpoint(self, phase: str) -> None:
        """Raises :class:`ChaosCrash` if the plan says to die here.

        Called on the loop thread or a batch thread.  The crash is
        abrupt by design: the listener and every open connection are
        torn down and the loop stopped, with no drain and no socket
        unlink — exactly what a SIGKILL'd daemon leaves behind.
        """
        if not self.plan.crash_at(phase):
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
        loop = self._server.get_loop()

        def abort() -> None:
            self._server.close()
            for writer in list(self._connections):
                with contextlib.suppress(Exception):
                    writer.transport.abort()
            loop.stop()

        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(abort)

    async def _dispatch_loop(self) -> None:
        # crash() has already torn the loop down; swallowing the crash
        # here just keeps the dead dispatcher task quiet.
        with contextlib.suppress(ChaosCrash):
            await super()._dispatch_loop()

    # -- transport ---------------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        if self.plan.refuse_connection():
            # Hang up before reading a byte, the way an out-of-fds or
            # dying daemon would.
            self._count("serve.chaos.refused")
            with contextlib.suppress(Exception):
                writer.close()
            return
        await super()._handle_client(reader, writer)

    async def _write_frame(self, writer, data: bytes) -> None:
        action, arg = self.plan.response_action(len(data))
        if action == "stall":
            # A stalled read from the client's point of view: the
            # frame arrives, but late.
            self._count("serve.chaos.stalled")
            await asyncio.sleep(arg)
        elif action == "disconnect":
            # Mid-frame disconnect, zero bytes delivered.
            self._count("serve.chaos.disconnected")
            writer.transport.abort()
            return
        elif action == "truncate":
            # Partial frame, then a hard cut: the client must treat
            # the half-line as a transport failure.
            self._count("serve.chaos.truncated")
            writer.write(data[: max(1, int(arg))])
            await writer.drain()
            writer.transport.abort()
            return
        elif action == "garble":
            # Flip bytes inside the frame (newline preserved): the
            # client sees undecodable JSON.
            self._count("serve.chaos.garbled")
            data = self.plan.garble_frame(data)
        await super()._write_frame(writer, data)


class ServerThread:
    """A daemon on a background thread.

    ``start()`` blocks until the socket is accepting; ``stop()`` drains
    gracefully; ``kill()`` stops the event loop abruptly — the
    simulated daemon crash (no drain, no socket cleanup) the restart
    tests recover from.
    """

    def __init__(self, server: Server) -> None:
        self.server = server
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
        if self.server._server is not None:
            for sock in self.server._server.sockets:
                with contextlib.suppress(OSError):
                    sock._sock.close()


class ChaosHarness:
    """A supervised daemon under chaos: restart on crash, rot the store.

    Plays the operator's supervisor (systemd, a k8s liveness probe):
    :meth:`ensure_alive` notices an injected crash and starts a fresh
    daemon on the same socket and store — exercising stale-socket
    recovery and warm-store reuse on every restart.
    :meth:`maybe_corrupt_store` applies the plan's blob faults to the
    shared on-disk store between workload steps.
    """

    def __init__(
        self,
        config: ServeConfig,
        plan: ServeFaultPlan,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.config = config
        self.plan = plan
        self.cache = cache or ArtifactCache(root=config.cache_dir)
        self.restarts = 0
        self.blob_faults = 0
        self.thread: Optional[ServerThread] = None

    def _spawn(self) -> None:
        self.thread = ServerThread(
            ChaosServer(self.config, self.plan, cache=self.cache)
        ).start()

    def start(self) -> "ChaosHarness":
        self.plan.start_clock()
        self._spawn()
        return self

    def alive(self) -> bool:
        return (
            self.thread is not None and self.thread._thread.is_alive()
        )

    def ensure_alive(self) -> bool:
        """Restarts the daemon if an injected crash took it down.

        Returns True when a restart happened.  The dead daemon leaves
        its socket file behind (crashes never unlink), so every
        restart goes through stale-socket recovery.
        """
        if self.alive():
            return False
        if self.thread is not None:
            # Reap the dead thread; release any still-open listener fd
            # exactly like the OS would for a dead process.
            self.thread.kill(timeout=5.0)
        self.restarts += 1
        self._spawn()
        return True

    def maybe_corrupt_store(self) -> int:
        """Applies the plan's blob faults to stored entries.

        Each on-disk entry rolls the plan's ``corrupt_blob`` /
        ``truncate_blob`` dice once; victims are bit-flipped in the
        middle or cut to half length, in place.  Returns the number of
        entries damaged.  The store's header check must turn every one
        into a quarantine + transparent recompile, never a served
        corrupt payload.
        """
        damaged = 0
        for path in self._blob_paths():
            fault = self.plan.blob_fault()
            if fault is None:
                continue
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                if not data:
                    continue
                if fault == "corrupt":
                    middle = len(data) // 2
                    data = (
                        data[:middle]
                        + bytes([data[middle] ^ 0xFF])
                        + data[middle + 1:]
                    )
                else:
                    data = data[: max(1, len(data) // 2)]
                with open(path, "wb") as handle:
                    handle.write(data)
            except OSError:
                continue  # store swept it concurrently
            damaged += 1
        self.blob_faults += damaged
        return damaged

    def _blob_paths(self) -> List[str]:
        return [path for path, _mtime, _size in self.cache.iter_entries()]

    def stop(self, timeout: float = 30.0) -> None:
        """Heals the plan and drains the daemon gracefully."""
        self.plan.heal_now()
        if self.thread is None:
            return
        if self.alive():
            self.thread.stop(timeout)
            if self.thread._thread.is_alive():
                self.thread.kill(timeout)
        else:
            self.thread.kill(timeout)
        with contextlib.suppress(OSError):
            os.unlink(self.config.socket_path)
