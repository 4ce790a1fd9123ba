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
      "version": 4,
      "total_seconds": 0.123,
      "passes":   {"analysis.conflict-set": {"seconds": 0.05, "calls": 1}},
      "counters": {"engine.closures": 42, "engine.masked_row_hits": 17}
    }

Counters are cumulative over the profiler's lifetime; nested or repeated
passes accumulate into one entry per name.  The compile driver times
each stage it runs as ``pass.<stage>`` and counts each memo hit as
``pipeline.cached.<stage>``, so a multi-level compile's reuse of the
frontend and the analyses is directly visible.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional


@dataclass
class PassRecord:
    seconds: float = 0.0
    calls: int = 0


class Profiler:
    """Accumulates per-pass wall time and named integer counters."""

    def __init__(self) -> None:
        self.passes: Dict[str, PassRecord] = {}
        self.counters: Dict[str, int] = {}
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

    # -- reporting ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 4,
            "total_seconds": time.perf_counter() - self._started,
            "passes": {
                name: {"seconds": record.seconds, "calls": record.calls}
                for name, record in sorted(self.passes.items())
            },
            "counters": dict(sorted(self.counters.items())),
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
