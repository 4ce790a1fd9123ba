"""Pass-level profiler for the compile pipeline.

A :class:`Profiler` accumulates wall-clock time per named pass and a set
of integer counters (closure counts, BFS counts, cache hit rates, ...).
The hot analysis loops never talk to the profiler directly — they keep
plain integer statistics and the drivers transfer them in bulk — so
profiling overhead is negligible and the instrumentation can stay on
permanently.

Usage::

    from repro.perf import profiled, pass_timer, count

    with profiled() as prof:
        compile_source(src, OptLevel.O3)
    print(prof.to_json())

``pass_timer``/``count`` are no-ops when no profiler is active, so
library code can call them unconditionally.

JSON schema (``Profiler.to_dict``)::

    {
      "version": 3,
      "total_seconds": 0.123,
      "passes":   {"analysis.conflict-set": {"seconds": 0.05, "calls": 1}},
      "counters": {"engine.closures": 42, "engine.masked_row_hits": 17},
      "events":   [{"name": "compile.pool.fallback", "detail": "..."}],
      "pass_events": [
        {"pass": "analysis-sync", "pipeline": "O3", "seconds": 0.04,
         "cached": false, "mutates_ir": false}
      ]
    }

Counters are cumulative over the profiler's lifetime; nested or repeated
passes accumulate into one entry per name.  ``events`` records discrete
degradation incidents — compile-pool worker deaths, timeouts, serial
fallbacks — that a counter alone would flatten into noise.
``pass_events`` is the compile driver's structured stream: one entry
per pipeline stage *in execution order*, including memo hits (``cached:
true``, zero seconds), so a multi-level compile's reuse of the frontend
and the analyses is directly visible.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional


@dataclass
class PassRecord:
    seconds: float = 0.0
    calls: int = 0


class Profiler:
    """Accumulates per-pass wall time and named integer counters."""

    def __init__(self) -> None:
        self.passes: Dict[str, PassRecord] = {}
        self.counters: Dict[str, int] = {}
        self.events: List[Dict[str, str]] = []
        self.pass_events: List[dict] = []
        self._started = time.perf_counter()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def pass_timer(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            record = self.passes.setdefault(name, PassRecord())
            record.seconds += time.perf_counter() - start
            record.calls += 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def count_many(self, counters: Mapping[str, int]) -> None:
        for name, amount in counters.items():
            self.count(name, amount)

    def record_event(self, name: str, detail: str = "") -> None:
        """Logs a discrete incident (worker crash, fallback, ...)."""
        self.events.append({"name": name, "detail": detail})

    def record_pass(self, event: dict) -> None:
        """Appends one compile-driver event to the structured stream."""
        self.pass_events.append(event)

    # -- reporting ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 3,
            "total_seconds": time.perf_counter() - self._started,
            "passes": {
                name: {"seconds": record.seconds, "calls": record.calls}
                for name, record in sorted(self.passes.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "events": list(self.events),
            "pass_events": list(self.pass_events),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# -- the active-profiler stack (thread-local) ------------------------------

_state = threading.local()


def current() -> Optional[Profiler]:
    """The innermost active profiler, or None."""
    stack = getattr(_state, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def profiled(profiler: Optional[Profiler] = None) -> Iterator[Profiler]:
    """Installs a profiler for the dynamic extent of the block."""
    profiler = profiler or Profiler()
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    stack.append(profiler)
    try:
        yield profiler
    finally:
        stack.pop()


@contextmanager
def pass_timer(name: str) -> Iterator[None]:
    """Times a named pass against the active profiler (no-op without)."""
    profiler = current()
    if profiler is None:
        yield
        return
    with profiler.pass_timer(name):
        yield


def count(name: str, amount: int = 1) -> None:
    """Bumps a counter on the active profiler (no-op without one)."""
    profiler = current()
    if profiler is not None:
        profiler.count(name, amount)


def record_event(name: str, detail: str = "") -> None:
    """Logs an incident on the active profiler (no-op without one)."""
    profiler = current()
    if profiler is not None:
        profiler.record_event(name, detail)
