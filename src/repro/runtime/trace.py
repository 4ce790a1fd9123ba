"""Execution traces and the order-maintenance precedence oracle.

When tracing is enabled the simulator records, per processor and in
*program (issue) order*, every data access to shared memory along with
the value it read or wrote, and every synchronization operation
(post/wait, lock/unlock, barrier).  The checker
(:mod:`repro.runtime.consistency`) then decides whether some total order
explains the trace — the system contract of §3.

Precedence oracle
-----------------

The seed answered "does event *a* happen before event *b*?" by
rescanning history, which is quadratic over a trace and useless at
256-1024 processors.  :class:`PrecedenceOracle` instead replays the
sync records once, topologically, and labels each segment of each
processor's timeline with an **(epoch, frontier)** clock in the spirit
of DePa's order-maintenance labels (Westrick et al.) specialized to
this language's sync structure:

* the **epoch** counts completed barrier generations.  A barrier is a
  full join, so after barrier ``g`` a processor's cross-processor
  knowledge is exactly "everything up to each processor's generation-g
  arrival" — one shared ``epoch_pos[g]`` table, no per-processor
  vectors;
* the **frontier** is a sparse map ``proc -> position`` of knowledge
  acquired *since* the last barrier through post→wait and
  unlock→lock joins (transitive: a publisher's clock already folds in
  its own joins).  Barriers clear it.

``precedes(pa, ia, pb, ib)`` is then O(log segments) — a bisect to
find ``(pb, ib)``'s segment plus two dict probes — instead of a trace
rescan.  Replay pairs syncs structurally, not by timestamp: flags by
key (posting twice is illegal, so a key names its post), locks by the
release serial the runtime's :class:`~repro.runtime.sync_objects.LockTable`
stamps on each unlock→acquire handoff, barriers by per-processor
generation number.  A trace whose sync records cannot be replayed
(e.g. a hand-built trace that deadlocks) yields an incomplete oracle:
``topological_events()`` returns ``None`` and ``precedes`` degrades to
an under-approximation, which consumers treat as "unknown".
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

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
    #: Issue-order position on the owning processor's timeline; data
    #: and sync records share one position space, which is what lets
    #: the precedence oracle bisect a data event into a sync segment.
    pos: int = 0

    def __str__(self) -> str:
        name, flat = self.location
        return f"P{self.proc}:{self.op} {name}[{flat}]={self.value}"


@dataclass
class SyncRecord:
    """One synchronization operation on a processor's timeline."""

    proc: int
    pos: int
    kind: str  # "post" | "wait" | "lock" | "unlock" | "barrier"
    #: flag/lock element for post/wait/lock/unlock; None for barriers.
    key: Optional[Location] = None
    #: pairing serial: for lock, the release serial observed at grant
    #: (0 = first acquisition); for unlock, the serial of this release
    #: (1-based); for barrier, the processor's generation number.
    serial: int = 0
    uid: int = 0


class ExecutionTrace:
    """Per-processor program-order event and sync-record lists."""

    def __init__(self, num_procs: int):
        self.per_proc: List[List[MemEvent]] = [[] for _ in range(num_procs)]
        self.sync_per_proc: List[List[SyncRecord]] = [
            [] for _ in range(num_procs)
        ]
        self._positions: List[int] = [0] * num_procs

    def _next_pos(self, proc: int) -> int:
        pos = self._positions[proc]
        self._positions[proc] = pos + 1
        return pos

    def record_write(self, proc: int, location: Location,
                     value: Value, uid: int = 0) -> MemEvent:
        event = MemEvent(proc, "w", location, value, uid,
                         pos=self._next_pos(proc))
        self.per_proc[proc].append(event)
        return event

    def record_read_issue(self, proc: int, location: Location,
                          uid: int = 0) -> MemEvent:
        """Appends a read in issue order; value filled on completion."""
        event = MemEvent(proc, "r", location, uid=uid,
                         pos=self._next_pos(proc))
        self.per_proc[proc].append(event)
        return event

    def record_sync(self, proc: int, kind: str,
                    key: Optional[Location] = None,
                    serial: int = 0, uid: int = 0) -> SyncRecord:
        record = SyncRecord(proc, self._next_pos(proc), kind, key,
                            serial, uid)
        self.sync_per_proc[proc].append(record)
        return record

    def source_ordered(self) -> "ExecutionTrace":
        """A copy with each processor's timeline sorted by source uid.

        Valid for straight-line (per-processor loop-free) programs:
        uids are assigned in lowering order, and the optimizer keeps
        them stable, so this undoes initiation reordering and lets the
        SC checker judge the *source* program order.  Sync records ride
        along (they carry their instruction uid too) and positions are
        reassigned so the precedence oracle sees a consistent timeline.
        """
        clone = ExecutionTrace(len(self.per_proc))
        for proc, events in enumerate(self.per_proc):
            merged: List[Tuple[int, int, object]] = [
                (e.uid, e.pos, e) for e in events
            ]
            merged.extend(
                (r.uid, r.pos, r) for r in self.sync_per_proc[proc]
            )
            merged.sort(key=lambda item: (item[0], item[1]))
            for pos, (_, _, item) in enumerate(merged):
                if isinstance(item, MemEvent):
                    clone.per_proc[proc].append(
                        MemEvent(item.proc, item.op, item.location,
                                 item.value, item.uid, item.forwarded,
                                 pos)
                    )
                else:
                    clone.sync_per_proc[proc].append(
                        SyncRecord(item.proc, pos, item.kind, item.key,
                                   item.serial, item.uid)
                    )
            clone._positions[proc] = len(merged)
        return clone

    def total_length(self) -> int:
        return sum(len(events) for events in self.per_proc)


class _StuckReplay(Exception):
    """Internal: the sync records cannot be topologically replayed."""


class PrecedenceOracle:
    """Near-O(1) happens-before queries over a traced execution.

    Built once per trace (one topological replay of the sync records,
    linear in trace size); :meth:`precedes` then answers in a bisect
    plus two dict probes.  See the module docstring for the clock
    design and :meth:`topological_events` for the hb-consistent total
    order the SC fast path consumes.
    """

    def __init__(self, trace: ExecutionTrace):
        self.trace = trace
        self.num_procs = len(trace.per_proc)
        n = self.num_procs
        #: per proc: positions where a new clock segment begins
        self.seg_starts: List[List[int]] = [[0] for _ in range(n)]
        #: per proc: (epoch, frontier) in force from the matching start
        self.seg_clocks: List[List[Tuple[int, Dict[int, int]]]] = [
            [(0, {})] for _ in range(n)
        ]
        #: epoch_pos[g][p] = p's position at its generation-g barrier
        self.epoch_pos: List[Dict[int, int]] = []
        self.complete = False
        self._topo: List[MemEvent] = []
        self._replay()

    # -- construction ------------------------------------------------------

    def _replay(self) -> None:
        trace = self.trace
        n = self.num_procs
        sync = trace.sync_per_proc
        data = trace.per_proc
        idx = [0] * n
        emit_idx = [0] * n
        epoch = [0] * n
        frontier: List[Dict[int, int]] = [{} for _ in range(n)]
        published = [False] * n
        flag_clock: Dict[Location, Tuple[int, Dict[int, int]]] = {}
        lock_clock: Dict[
            Tuple[Location, int], Tuple[int, Dict[int, int]]
        ] = {}
        barrier_count: Dict[int, int] = {}
        topo = self._topo

        def emit_until(p: int, limit: int) -> None:
            events = data[p]
            i = emit_idx[p]
            while i < len(events) and events[i].pos < limit:
                topo.append(events[i])
                i += 1
            emit_idx[p] = i

        def own_clock(p: int, pos: int) -> Tuple[int, Dict[int, int]]:
            fr = dict(frontier[p])
            if pos > fr.get(p, -1):
                fr[p] = pos
            return (epoch[p], fr)

        def join(p: int, pos: int,
                 clock: Tuple[int, Dict[int, int]]) -> None:
            pub_epoch, pub_frontier = clock
            if pub_epoch > epoch[p]:
                epoch[p] = pub_epoch
            merged = dict(frontier[p])
            for q, qpos in pub_frontier.items():
                if qpos > merged.get(q, -1):
                    merged[q] = qpos
            frontier[p] = merged
            self.seg_starts[p].append(pos)
            self.seg_clocks[p].append((epoch[p], merged))

        def complete_barrier(gen: int) -> None:
            # Every processor is parked at its generation-`gen` record
            # (a pointer cannot pass an incomplete barrier), so the
            # whole generation joins atomically — which also keeps the
            # emitted order topological: all pre-barrier data lands
            # before any post-barrier data.
            for q in range(n):
                if idx[q] >= len(sync[q]):
                    raise _StuckReplay
                record = sync[q][idx[q]]
                if record.kind != "barrier" or record.serial != gen:
                    raise _StuckReplay
                emit_until(q, record.pos)
                epoch[q] = gen + 1
                frontier[q] = {}
                self.seg_starts[q].append(record.pos)
                self.seg_clocks[q].append((gen + 1, {}))
                idx[q] += 1
                published[q] = False

        progress = True
        while progress:
            progress = False
            for p in range(n):
                while idx[p] < len(sync[p]):
                    rec = sync[p][idx[p]]
                    kind = rec.kind
                    if kind == "post":
                        emit_until(p, rec.pos)
                        flag_clock[rec.key] = own_clock(p, rec.pos)
                    elif kind == "unlock":
                        emit_until(p, rec.pos)
                        lock_clock[(rec.key, rec.serial)] = own_clock(
                            p, rec.pos
                        )
                    elif kind == "wait":
                        clock = flag_clock.get(rec.key)
                        if clock is None:
                            break
                        emit_until(p, rec.pos)
                        join(p, rec.pos, clock)
                    elif kind == "lock":
                        if rec.serial > 0:
                            clock = lock_clock.get((rec.key, rec.serial))
                            if clock is None:
                                break
                            emit_until(p, rec.pos)
                            join(p, rec.pos, clock)
                        else:
                            emit_until(p, rec.pos)
                    elif kind == "barrier":
                        gen = rec.serial
                        if not published[p]:
                            while len(self.epoch_pos) <= gen:
                                self.epoch_pos.append({})
                            self.epoch_pos[gen][p] = rec.pos
                            barrier_count[gen] = (
                                barrier_count.get(gen, 0) + 1
                            )
                            published[p] = True
                            progress = True
                        if barrier_count.get(gen, 0) < n:
                            break
                        try:
                            complete_barrier(gen)
                        except _StuckReplay:
                            self._topo = []
                            return
                        progress = True
                        continue
                    else:
                        self._topo = []
                        return
                    idx[p] += 1
                    published[p] = False
                    progress = True

        self.complete = all(
            idx[p] == len(sync[p]) for p in range(n)
        )
        if self.complete:
            for p in range(n):
                if data[p]:
                    emit_until(p, data[p][-1].pos + 1)
        else:
            self._topo = []

    # -- queries -----------------------------------------------------------

    def precedes(self, proc_a: int, pos_a: int,
                 proc_b: int, pos_b: int) -> bool:
        """True when (proc_a, pos_a) happens-before (proc_b, pos_b).

        Exact for traces whose sync records replay completely; an
        under-approximation (may answer False for ordered pairs, never
        the reverse) otherwise.  Same-generation barrier records of
        different processors count as mutually ordered — they are one
        synchronization episode.
        """
        if proc_a == proc_b:
            return pos_a < pos_b
        starts = self.seg_starts[proc_b]
        seg = bisect_right(starts, pos_b) - 1
        seg_epoch, seg_frontier = self.seg_clocks[proc_b][seg]
        if pos_a <= seg_frontier.get(proc_a, -1):
            return True
        return (
            seg_epoch > 0
            and pos_a <= self.epoch_pos[seg_epoch - 1].get(proc_a, -1)
        )

    def ordered(self, a: MemEvent, b: MemEvent) -> bool:
        """Happens-before over data events, in either direction."""
        return (
            self.precedes(a.proc, a.pos, b.proc, b.pos)
            or self.precedes(b.proc, b.pos, a.proc, a.pos)
        )

    def topological_events(self) -> Optional[List[MemEvent]]:
        """All data events in an hb-consistent total order, or ``None``
        when the sync records did not replay to completion."""
        if not self.complete:
            return None
        return list(self._topo)
