"""Seeded fault injection for the serve stack (chaos harness).

PR 3's :class:`repro.runtime.network.FaultPlan` made the *simulated*
network adversarial; this module applies the same playbook to the real
serving substrate — unix sockets, the daemon process, the compile
pool, and the on-disk artifact store.  A :class:`ServeFaultPlan` is a
deterministic function of one seed: identical (plan, workload) pairs
replay the exact same fault schedule, so every chaos failure is a
one-command repro.

Fault classes
=============

* **Transport** — connection refusals before the first byte,
  mid-frame disconnects, truncated frames (a prefix then a hard cut),
  garbled frames (bytes flipped inside the JSON), stalled reads (the
  frame arrives late).  Injected by the daemon's write path; the
  resilient client must map every one to a typed ``transport`` error
  and retry.
* **Daemon crash-at-phase** — the daemon dies abruptly (no drain, no
  socket unlink) at ``pre_cache_put``, ``mid_batch`` or ``mid_drain``,
  exactly what SIGKILL leaves behind; whatever supervises the daemon
  restarts it (in the chaos tests, ``tests/serve/chaos_harness.py``).
* **Pool wedge** — the batch's pool workers sleep long enough to trip
  the pool timeout (``$REPRO_COMPILE_TIMEOUT``), forcing the
  in-process fallback.
* **Store rot** — blobs on disk are bit-flipped or truncated between
  requests; the store's digest verification must quarantine them.

Faults *heal*: after :meth:`ServeFaultPlan.heal_now` (or
``heal_after`` seconds from :meth:`ServeFaultPlan.start_clock`) every
probability reads as zero, which is how the chaos oracle asserts
convergence — once the weather clears, the same workload must reach a
100% cache hit rate.

Spec grammar (the ``repro serve --chaos`` string)::

    spec  := item (',' item)*
    item  := 'refuse=P' | 'disconnect=P' | 'truncate=P' | 'garble=P'
           | 'stall=P:SECONDS'            # delayed response frame
           | 'crash.PHASE=P'              # pre_cache_put | mid_batch
                                          #   | mid_drain
           | 'corrupt_blob=P' | 'truncate_blob=P'
           | 'wedge=P:SECONDS'            # compile-pool stall
           | 'heal_after=SECONDS'

probabilities are floats in [0, 1].  Example:
``refuse=0.05,disconnect=0.1,garble=0.05,crash.mid_batch=0.02``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

# Re-exported here so harness/test code has one import surface; the
# class lives in daemon.py (the daemon must raise it without importing
# this module back).
from repro.serve.daemon import ChaosCrash

#: The daemon phases an injected crash may target.
CRASH_PHASES = ("pre_cache_put", "mid_batch", "mid_drain")


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
    wedge: float = 0.0
    wedge_seconds: float = 0.0
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

    def pool_wedge_seconds(self) -> float:
        return self.wedge_seconds if self._roll(self.wedge) else 0.0

    def wedged_job(self) -> Optional["WedgedJob"]:
        """The job function for one pool batch under a ``wedge`` fault
        (None = no fault this batch: the real job function)."""
        seconds = self.pool_wedge_seconds()
        return WedgedJob(seconds) if seconds > 0 else None

    # -- store-side queries (driven by the harness) ------------------------

    def blob_fault(self) -> Optional[str]:
        """``"corrupt"``, ``"truncate"`` or None, for one stored blob."""
        if self._roll(self.corrupt_blob):
            return "corrupt"
        if self._roll(self.truncate_blob):
            return "truncate"
        return None

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "ServeFaultPlan":
        """Parses the ``--chaos`` grammar documented in the module."""
        kwargs: Dict[str, Any] = {"seed": seed}
        crash: Dict[str, float] = {}
        for raw in spec.split(","):
            item = raw.strip()
            if not item:
                continue
            try:
                key, value = item.split("=", 1)
            except ValueError:
                raise ValueError(
                    f"bad chaos item {item!r} (expected key=value)"
                ) from None
            key, value = key.strip(), value.strip()
            try:
                if key in ("refuse", "disconnect", "truncate", "garble",
                           "corrupt_blob", "truncate_blob"):
                    kwargs[key] = _prob(value)
                elif key == "stall":
                    prob, _, seconds = value.partition(":")
                    kwargs["stall"] = _prob(prob)
                    if seconds:
                        kwargs["stall_seconds"] = float(seconds)
                elif key == "wedge":
                    prob, _, seconds = value.partition(":")
                    kwargs["wedge"] = _prob(prob)
                    if seconds:
                        kwargs["wedge_seconds"] = float(seconds)
                elif key.startswith("crash."):
                    crash[key[len("crash."):]] = _prob(value)
                elif key == "heal_after":
                    kwargs["heal_after"] = float(value)
                else:
                    raise ValueError(f"unknown chaos key {key!r}")
            except ValueError as exc:
                raise ValueError(
                    f"bad chaos item {item!r}: {exc}"
                ) from None
        if crash:
            kwargs["crash"] = crash
        return cls(**kwargs)

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
        if self.wedge:
            parts.append(f"wedge={self.wedge:g}:{self.wedge_seconds:g}")
        if self.heal_after:
            parts.append(f"heal_after={self.heal_after:g}")
        if not parts:
            parts.append("no-faults")
        return ",".join(parts)


@dataclass(frozen=True)
class WedgedJob:
    """A compile job that hangs for ``seconds`` first — in a pool
    worker only, where the pool's timeout can see it; the in-process
    fallback that rescues the batch runs it without the sleep.
    Picklable, so the pool can ship it to its workers."""

    seconds: float

    def __call__(self, job):
        import multiprocessing

        from repro.perf.parallel import compile_job

        if multiprocessing.parent_process() is not None:
            time.sleep(self.seconds)
        return compile_job(job)


def _prob(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability {value} outside [0, 1]")
    return value


__all__ = [
    "CRASH_PHASES",
    "ChaosCrash",
    "ServeFaultPlan",
]
