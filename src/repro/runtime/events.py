"""The event core: calendar queue + per-link FIFO rings.

The seed simulator kept every future event in one flat ``heapq`` of
``(time, seq, payload)`` tuples.  That is simple and deterministic, but
at 256-1024 processors a single em3d/ocean run pushes millions of
events through the heap and the ``log n`` sift cost (plus one fresh
tuple per event) dominates the run.  This module provides the two
structures ``Simulator.run`` uses instead:

:class:`CalendarQueue`
    Buckets events by integer timestamp: a dict ``time -> [payload]``
    plus a small heap of *distinct* times.  Popping a batch costs one
    heap pop regardless of how many events share the timestamp, and
    same-time pushes are plain list appends.  Within a timestamp,
    payloads run in insertion order — exactly the order the seed heap's
    monotonically increasing ``seq`` tie-break produced, so the schedule
    is the flat heap's (the determinism audit in DESIGN.md §11 spells
    out the argument).

:class:`LinkChannels`
    Per-``(src, dst)`` FIFO ring buffers for message delivery.  The
    network already guarantees point-to-point FIFO by bumping arrival
    times, so per-link arrivals are strictly increasing and a deque
    preserves delivery order.  The payoff is allocation: every message
    on a link shares one cached ``("link", ring)`` payload tuple
    instead of allocating a ``("deliver", msg)`` pair per event.

The flat-heap loop survives as a test-side differential oracle
(``tests/runtime/reference_engine.py``), not as a second engine here.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, Tuple

from repro.errors import RuntimeFault


class CalendarQueue:
    """Bucketed pending-event set with batch dispatch.

    The owner drains it like so (see ``Simulator.run``)::

        while calendar.times:
            time, batch = calendar.pop_batch()
            i = 0
            while i < len(batch):   # live append: same-time pushes
                payload = batch[i]  # land on this batch, in order
                i += 1
                ...dispatch payload...
            calendar.retire(time)

    ``push`` refuses to schedule into the past: with the flat heap a
    stale event would silently run out of order; here it is a loud
    :class:`RuntimeFault`, which the determinism tests lean on.
    """

    __slots__ = ("buckets", "times", "now")

    def __init__(self) -> None:
        self.buckets: Dict[int, List[tuple]] = {}
        self.times: List[int] = []
        #: timestamp of the batch currently dispatching
        self.now = 0

    def push(self, time: int, payload: tuple) -> None:
        if time < self.now:
            raise RuntimeFault(
                f"event scheduled into the past ({time} < {self.now}): "
                f"{payload[0]!r}"
            )
        bucket = self.buckets.get(time)
        if bucket is None:
            self.buckets[time] = [payload]
            heappush(self.times, time)
        else:
            bucket.append(payload)

    def pop_batch(self) -> Tuple[int, List[tuple]]:
        """Next (time, payloads) batch; the bucket stays live so pushes
        at the same timestamp append to it mid-dispatch."""
        time = heappop(self.times)
        self.now = time
        return time, self.buckets[time]

    def retire(self, time: int) -> None:
        del self.buckets[time]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())

    def __bool__(self) -> bool:
        return bool(self.times)


class LinkChannels:
    """Per-link message rings with cached delivery payloads."""

    __slots__ = ("_rings", "_payloads")

    def __init__(self) -> None:
        self._rings: Dict[Tuple[int, int], Deque] = {}
        self._payloads: Dict[Tuple[int, int], tuple] = {}

    def enqueue(self, link: Tuple[int, int], msg) -> tuple:
        """Appends ``msg`` to the link's ring; returns the link's
        (shared, cached) event payload to push on the calendar."""
        ring = self._rings.get(link)
        if ring is None:
            ring = self._rings[link] = deque()
            self._payloads[link] = ("link", ring)
        ring.append(msg)
        return self._payloads[link]

    def pending(self) -> int:
        """In-flight messages across all rings (forensics)."""
        return sum(len(ring) for ring in self._rings.values())
