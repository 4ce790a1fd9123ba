"""Sequential-consistency checking of execution traces (§3).

An execution is sequentially consistent when some total order ``S`` of
its accesses (a) contains every processor's program order and (b) makes
every read return the most recent preceding write (Lamport).  Deciding
this is NP-hard in general; the checker below is an exact, memoized
depth-first search over interleavings.

A search state is each processor's position in its program plus the
memory those moves left behind; locations are interned into slots of
one memory tuple, so a state is two tuples.  The processor that moved
last is tried first: a run's trace is mostly long same-processor
stretches between cross-processor handoffs, so following one processor
until it blocks finds a witness in about one step per event, where a
fixed processor-0-first order would keep switching away and back.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.runtime.trace import ExecutionTrace, Location

Value = Union[int, float]

#: Default initial contents of every location.
_DEFAULT_INITIAL: Value = 0


class StepLimitExceeded(RuntimeError):
    """The exact search gave up before deciding (trace too large).

    A subclass of :class:`RuntimeError` for backward compatibility;
    callers that want to *skip* oversized traces (the fuzz campaign)
    catch this instead of answering wrongly.
    """


def is_sequentially_consistent(
    trace: ExecutionTrace,
    initial: Optional[Dict[Location, Value]] = None,
    step_limit: int = 2_000_000,
) -> bool:
    """Does some legal total order explain the trace?

    ``initial`` overrides the default all-zero initial memory.  The
    search is exact; ``step_limit`` bounds the number of distinct
    states it visits, raising :class:`StepLimitExceeded` rather than
    answering wrongly.
    """
    initial = initial or {}
    slots: Dict[Location, int] = {}
    programs: List[List[Tuple[bool, int, Value]]] = [
        [(event.op == "w", slots.setdefault(event.location, len(slots)),
          event.value) for event in events]
        for events in trace.per_proc
    ]
    lengths = tuple(len(program) for program in programs)
    num_procs = len(programs)

    def moves(positions: Tuple[int, ...], memory: Tuple[Value, ...],
              last: int) -> Iterator[Tuple[Tuple[int, ...],
                                           Tuple[Value, ...], int]]:
        """Every legal next state, ``last``'s move first."""
        for proc in (last, *range(last), *range(last + 1, num_procs)):
            pos = positions[proc]
            if pos == lengths[proc]:
                continue
            is_write, slot, value = programs[proc][pos]
            if is_write:
                next_memory = memory[:slot] + (value,) + memory[slot + 1:]
            elif memory[slot] == value:
                next_memory = memory
            else:
                continue
            yield (positions[:proc] + (pos + 1,) + positions[proc + 1:],
                   next_memory, proc)

    start = (
        (0,) * num_procs,
        tuple(initial.get(location, _DEFAULT_INITIAL) for location in slots),
    )
    if start[0] == lengths:
        return True
    seen = {start}
    stack = [moves(*start, 0)]
    steps = 1
    while stack:
        for positions, memory, proc in stack[-1]:
            state = (positions, memory)
            if state in seen:
                continue
            if positions == lengths:
                return True
            steps += 1
            if steps > step_limit:
                raise StepLimitExceeded(
                    f"SC check exceeded step limit ({step_limit}); trace "
                    f"too large for the exact checker"
                )
            seen.add(state)
            stack.append(moves(positions, memory, proc))
            break
        else:
            stack.pop()
    return False


def find_violation_witness(
    trace: ExecutionTrace,
    initial: Optional[Dict[Location, Value]] = None,
) -> Optional[str]:
    """Human-readable description when a trace is not SC, else None."""
    if is_sequentially_consistent(trace, initial):
        return None
    lines = ["trace admits no sequentially consistent total order:"]
    for proc, events in enumerate(trace.per_proc):
        rendered = ", ".join(str(event) for event in events)
        lines.append(f"  P{proc}: {rendered}")
    return "\n".join(lines)
