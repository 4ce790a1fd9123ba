"""Runtime state for flags and locks.

These implement the homed synchronization constructs of §2/§5:

* **flags** — post/wait event variables.  Posting twice on the same
  element raises (the paper's footnote 2 makes it illegal, and our
  analysis relies on it).  Flags are not consumed by waits.
* **locks** — FIFO mutual-exclusion queues, homed on the owning node.

Barrier state lives with the barrier topologies
(:mod:`repro.runtime.topology`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import RuntimeFault

#: A flag or lock object instance: (variable name, flat element index).
ObjKey = Tuple[str, int]


class FlagTable:
    """Post/wait event state, homed per element."""

    def __init__(self) -> None:
        self._posted: Set[ObjKey] = set()
        self._waiters: Dict[ObjKey, List[int]] = {}

    def post(self, key: ObjKey) -> List[int]:
        """Marks the flag posted; returns the processors to wake."""
        if key in self._posted:
            raise RuntimeFault(
                f"double post on flag {key[0]}[{key[1]}] "
                "(illegal per the language rules)"
            )
        self._posted.add(key)
        return self._waiters.pop(key, [])

    def is_posted(self, key: ObjKey) -> bool:
        return key in self._posted

    def add_waiter(self, key: ObjKey, pid: int) -> None:
        self._waiters.setdefault(key, []).append(pid)

    def posted_keys(self) -> List[ObjKey]:
        """Every posted flag element (deadlock forensics)."""
        return sorted(self._posted)

    def waiting(self) -> Dict[ObjKey, List[int]]:
        """Processors still parked on unposted flags (forensics)."""
        return {key: list(pids) for key, pids in sorted(self._waiters.items())
                if pids}


class LockTable:
    """FIFO lock queues, homed per object."""

    def __init__(self) -> None:
        self._holder: Dict[ObjKey, Optional[int]] = {}
        self._queue: Dict[ObjKey, List[int]] = {}

    def acquire(self, key: ObjKey, pid: int) -> bool:
        """Tries to take the lock; True on success, else queues ``pid``."""
        holder = self._holder.get(key)
        if holder is None:
            self._holder[key] = pid
            return True
        self._queue.setdefault(key, []).append(pid)
        return False

    def release(self, key: ObjKey, pid: int) -> Optional[int]:
        """Releases; returns the next holder to grant, if any."""
        holder = self._holder.get(key)
        if holder != pid:
            raise RuntimeFault(
                f"processor {pid} unlocking {key[0]}[{key[1]}] "
                f"held by {holder}"
            )
        queue = self._queue.get(key, [])
        if queue:
            next_pid = queue.pop(0)
            self._holder[key] = next_pid
            return next_pid
        self._holder[key] = None
        return None

    def holder(self, key: ObjKey) -> Optional[int]:
        return self._holder.get(key)

    def held(self) -> Dict[ObjKey, Tuple[int, List[int]]]:
        """Held locks as key -> (holder, queued pids) (forensics)."""
        return {
            key: (holder, list(self._queue.get(key, ())))
            for key, holder in sorted(self._holder.items())
            if holder is not None
        }
