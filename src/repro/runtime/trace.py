"""Execution traces.

When tracing is enabled the simulator records, per processor and in
*program (issue) order*, every data access to shared memory along with
the value it read or wrote.  The checker
(:mod:`repro.runtime.consistency`) then decides whether some total order
explains the trace — the system contract of §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

Value = Union[int, float]

#: A memory location: (shared variable name, flat element index).
Location = Tuple[str, int]


@dataclass
class MemEvent:
    """One shared-memory data access as observed by its processor."""

    proc: int
    op: str  # "r" or "w"
    location: Location
    value: Optional[Value] = None  # reads are filled in on completion
    #: uid of the originating instruction.  Split-phase conversion and
    #: reuse keep the source access's uid, so for straight-line code,
    #: sorting a processor's events by uid recovers *source* program
    #: order even after initiation-reordering transformations.
    uid: int = 0
    #: True when a weak-memory read was satisfied from the issuing
    #: processor's own store buffer (store-to-load forwarding).
    forwarded: bool = False

    def __str__(self) -> str:
        name, flat = self.location
        return f"P{self.proc}:{self.op} {name}[{flat}]={self.value}"


class ExecutionTrace:
    """Per-processor program-order event lists."""

    def __init__(self, num_procs: int):
        self.per_proc: List[List[MemEvent]] = [[] for _ in range(num_procs)]

    def record_write(self, proc: int, location: Location,
                     value: Value, uid: int = 0) -> MemEvent:
        event = MemEvent(proc, "w", location, value, uid)
        self.per_proc[proc].append(event)
        return event

    def record_read_issue(self, proc: int, location: Location,
                          uid: int = 0) -> MemEvent:
        """Appends a read in issue order; value filled on completion."""
        event = MemEvent(proc, "r", location, uid=uid)
        self.per_proc[proc].append(event)
        return event

    def source_ordered(self) -> "ExecutionTrace":
        """A copy with each processor's timeline stably sorted by uid.

        Valid for straight-line (per-processor loop-free) programs:
        uids are assigned in lowering order, and the optimizer keeps
        them stable, so this undoes initiation reordering and lets the
        SC checker judge the *source* program order.
        """
        clone = ExecutionTrace(len(self.per_proc))
        clone.per_proc = [
            sorted(events, key=lambda event: event.uid)
            for events in self.per_proc
        ]
        return clone

    def total_length(self) -> int:
        return sum(len(events) for events in self.per_proc)
