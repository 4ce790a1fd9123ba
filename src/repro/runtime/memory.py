"""The distributed global address space.

Shared variables are partitioned across processors exactly as Split-C
distributes them: shared scalars live on processor 0; distributed arrays
are split over the *leading* dimension, blocked or cyclic.  Values are
held centrally (the simulator is one process) but every access is routed
to the owning processor's node, which is what produces the local/remote
cost difference and the network traffic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import RuntimeFault
from repro.ir.cfg import Module
from repro.ir.instructions import SharedVar
from repro.lang.types import Distribution, ScalarKind

Value = Union[int, float]


def flat_index(var: SharedVar, indices: Tuple[int, ...]) -> int:
    """Row-major flattening with bounds checking."""
    if len(indices) != len(var.dims):
        raise RuntimeFault(
            f"{var.name}: expected {len(var.dims)} indices, got {len(indices)}"
        )
    flat = 0
    for index, extent in zip(indices, var.dims):
        if not 0 <= index < extent:
            raise RuntimeFault(
                f"{var.name}: index {index} out of range [0, {extent})"
            )
        flat = flat * extent + index
    return flat


def leading_index(var: SharedVar, flat: int) -> int:
    """Recovers the leading-dimension index from a flat offset."""
    trailing = 1
    for extent in var.dims[1:]:
        trailing *= extent
    return flat // trailing if trailing else flat


class GlobalMemory:
    """Backing store plus the ownership map for all shared variables."""

    def __init__(self, module: Module, num_procs: int):
        if num_procs < 1:
            raise RuntimeFault("need at least one processor")
        self.num_procs = num_procs
        self._vars: Dict[str, SharedVar] = dict(module.shared_vars)
        self._storage: Dict[str, List[Value]] = {}
        for var in self._vars.values():
            zero: Value = 0.0 if var.kind is ScalarKind.DOUBLE else 0
            self._storage[var.name] = [zero] * max(1, var.element_count)

    def var(self, name: str) -> SharedVar:
        try:
            return self._vars[name]
        except KeyError:
            raise RuntimeFault(f"unknown shared variable {name!r}") from None

    # -- ownership ---------------------------------------------------------

    def owner(self, name: str, indices: Tuple[int, ...]) -> int:
        """The processor holding the named element."""
        var = self.var(name)
        if not var.dims:
            return 0  # shared scalars live on processor 0
        lead = indices[0] if indices else 0
        extent = var.dims[0]
        if not 0 <= lead < extent:
            raise RuntimeFault(
                f"{var.name}: leading index {lead} out of range [0, {extent})"
            )
        if var.distribution is Distribution.CYCLIC:
            return lead % self.num_procs
        block = -(-extent // self.num_procs)  # ceil division
        return min(lead // block, self.num_procs - 1)

    def owner_of_flat(self, name: str, flat: int) -> int:
        """The processor holding the element at a flat offset."""
        return self.owner(name, (leading_index(self.var(name), flat),))

    def resolve(self, name: str, indices: Tuple[int, ...]) -> Tuple[int, int]:
        """``(owner, flat offset)`` of one element, fully bounds-checked
        (the leading index first, with the ownership map's message).
        The simulator resolves each access once, where it issues; the
        ``*_flat`` methods below are what the home node then applies."""
        return self.owner(name, indices), flat_index(self.var(name), indices)

    # -- data access ----------------------------------------------------------

    def read(self, name: str, indices: Tuple[int, ...]) -> Value:
        var = self.var(name)
        return self._storage[name][flat_index(var, indices)]

    def write(self, name: str, indices: Tuple[int, ...], value: Value) -> None:
        var = self.var(name)
        if var.kind is ScalarKind.INT:
            value = int(value)
        self._storage[name][flat_index(var, indices)] = value

    def coerce(self, name: str, value: Value) -> Value:
        """The value as the variable's scalar kind stores it."""
        if self.var(name).kind is ScalarKind.INT:
            return int(value)
        return value

    def read_flat(self, name: str, flat: int) -> Value:
        return self._storage[name][flat]

    def write_flat(self, name: str, flat: int, value: Value) -> None:
        """Applies an already-coerced write at a flat offset (remote
        writes and store-buffer drains land through here)."""
        self._storage[name][flat] = value

    def snapshot(self) -> Dict[str, List[Value]]:
        """A copy of all shared data (for end-to-end result comparison)."""
        return {
            name: list(values)
            for name, values in self._storage.items()
            if not self._vars[name].is_sync_object
        }

    def array(self, name: str) -> List[Value]:
        """Direct view of one variable's storage (tests / examples)."""
        return self._storage[name]


# -- weak-memory backends (TSO / PSO) --------------------------------------
#
# The relaxed models are store-atomic in the sense of Derevenetc et
# al.: a write becomes visible to *every other* processor at one
# instant (the drain applies it to the single backing store), but the
# issuing processor may both run ahead of its own undrained writes and
# read them back early (store-to-load forwarding).  TSO keeps one FIFO
# buffer per processor, so writes drain in program order; PSO relaxes
# the buffer to per-location FIFOs, so writes to different locations
# may drain out of order while same-location order is preserved.


@dataclass
class BufferedWrite:
    """One write parked in a processor's store buffer."""

    id: int
    var: str
    flat: int
    value: Value


@dataclass
class WeakMemoryStats:
    """Observability counters for one weak-memory run."""

    buffered_writes: int = 0
    #: reads satisfied from the issuing processor's own buffer
    forwards: int = 0
    #: writes applied by the seeded background drain schedule
    drained: int = 0
    #: writes applied synchronously by a fence (sync op or delay fence)
    fence_drained: int = 0
    #: fences that found a non-empty buffer to flush
    fences: int = 0
    max_depth: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "buffered_writes": self.buffered_writes,
            "forwards": self.forwards,
            "drained": self.drained,
            "fence_drained": self.fence_drained,
            "fences": self.fences,
            "max_depth": self.max_depth,
        }


class StoreBuffers:
    """Per-processor store buffers implementing TSO or PSO.

    Writes by processor ``p`` to elements ``p`` owns are enqueued here
    instead of hitting :class:`GlobalMemory`; they apply (globally, in
    one instant) either when their seeded drain event fires or when a
    fence flushes the buffer.  ``p``'s own reads forward the newest
    buffered value; every other processor keeps reading the backing
    store, which is exactly the visibility gap relaxed hardware has.

    Deterministic for a given seed: drain delays are drawn from one
    seeded RNG in enqueue order.
    """

    def __init__(self, model: str, num_procs: int, seed: int,
                 window: Tuple[int, int], memory: GlobalMemory):
        if model not in ("tso", "pso"):
            raise RuntimeFault(f"unknown weak memory model {model!r}")
        self.model = model
        self.memory = memory
        self.window = window
        self._rng = random.Random((seed << 4) ^ 0xB0F5)
        self._buffers: List[List[BufferedWrite]] = [
            [] for _ in range(num_procs)
        ]
        self._ids = itertools.count(1)
        self.stats = WeakMemoryStats()

    def depth(self, pid: int) -> int:
        return len(self._buffers[pid])

    def enqueue(self, pid: int, var: str, flat: int,
                value: Value) -> Tuple[int, int]:
        """Buffers a write; returns ``(entry id, drain delay)``."""
        entry = BufferedWrite(
            next(self._ids), var, flat, self.memory.coerce(var, value)
        )
        buffer = self._buffers[pid]
        buffer.append(entry)
        self.stats.buffered_writes += 1
        self.stats.max_depth = max(self.stats.max_depth, len(buffer))
        return entry.id, self._rng.randint(*self.window)

    def forward(self, pid: int, var: str,
                flat: int) -> Optional[BufferedWrite]:
        """The newest buffered write matching the location, if any."""
        for entry in reversed(self._buffers[pid]):
            if entry.var == var and entry.flat == flat:
                self.stats.forwards += 1
                return entry
        return None

    def _apply(self, entry: BufferedWrite) -> None:
        self.memory.write_flat(entry.var, entry.flat, entry.value)

    def drain(self, pid: int, entry_id: int) -> int:
        """Background drain up to (and including) ``entry_id``.

        TSO retires the FIFO prefix; PSO retires only the entry's
        per-location queue prefix.  An id no longer present was already
        flushed by a fence — the stale event is a no-op.
        """
        buffer = self._buffers[pid]
        target = next(
            (e for e in buffer if e.id == entry_id), None
        )
        if target is None:
            return 0
        if self.model == "tso":
            ready = [e for e in buffer if e.id <= entry_id]
        else:  # pso: same-location prefix only
            ready = [
                e for e in buffer
                if e.id <= entry_id
                and (e.var, e.flat) == (target.var, target.flat)
            ]
        for entry in ready:
            self._apply(entry)
            buffer.remove(entry)
        self.stats.drained += len(ready)
        return len(ready)

    def flush(self, pid: int) -> int:
        """Synchronous fence: applies everything, in issue order."""
        buffer = self._buffers[pid]
        if not buffer:
            return 0
        for entry in buffer:
            self._apply(entry)
        count = len(buffer)
        buffer.clear()
        self.stats.fences += 1
        self.stats.fence_drained += count
        return count

    def flush_all(self) -> int:
        """End-of-run safety net (normally every drain already fired)."""
        return sum(self.flush(pid) for pid in range(len(self._buffers)))
