"""Barrier synchronization topologies.

The seed simulator hard-wired one barrier: every processor sends a
``BARRIER_ARRIVE`` to node 0, which, once all have arrived *and* every
one-way store has drained, broadcasts ``BARRIER_RELEASE`` messages
after a serialized release cost of ``barrier_base + barrier_per_proc *
num_procs`` cycles.  That linear release term is exactly what
Mellor-Crummey & Scott's scalable barriers eliminate, and at the
256-1024 processor scale of ROADMAP item 4 it dominates barrier cost
(4,136 cycles per release at 1024 procs on the CM-5 model vs. a flat
40).

:attr:`MachineConfig.barrier_topology` selects one of two strategy
objects:

``central``
    The seed rendezvous, bit-for-bit: same messages, same release
    formula, same store-drain gate.  The topology tests pin it
    against the test-side reference engine.

``tree``
    A combining tree of fan-in :data:`FANIN` (node ``i``'s parent is
    ``(i - 1) // FANIN``).  A processor's own arrival combines locally
    at its node; when a node has heard from its own processor and every
    child subtree it sends one combined ``BARRIER_ARRIVE`` up.  The
    root's completion gates on store drain like the central one, then
    the release cascades back down the tree, so both phases cost
    ``O(log P)`` network hops instead of ``O(P)`` serialized work.
    Combining and forwarding steal ``remote_handle`` cycles from the
    node's CPU (active-message style), matching how the simulator
    charges every other handler.

Both expose the same entry points (``local_arrive``, ``on_arrive``,
``on_release``, ``maybe_release``), the same state (``generation``;
``pending``, set once everyone arrived but stores are still draining;
``last_arrival``, the time the rendezvous completed) and forensics
(``describe_block``, ``forensics``).  All barrier
traffic flows through ``Simulator.send`` and therefore composes with
jitter, fault plans (drop/duplicate) and the reliability
protocol unchanged; the store-drain gate (the implicit
``all_store_sync``) is preserved by both.  Because a barrier release
never carries data, the topologies differ only in *timing*:
deterministic programs produce identical final snapshots under both
(a property the topology tests assert).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set, Union

from repro.errors import RuntimeFault
from repro.runtime.machine import MachineConfig, validate_barrier_topology
from repro.runtime.network import Message, MsgKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.simulator import Simulator


#: Fan-in of the combining-tree barrier.
FANIN = 4


class CentralBarrier:
    """The seed's central rendezvous, extracted verbatim.

    Release cost is ``barrier_base + barrier_per_proc * num_procs``
    past the last arrival (a serialized broadcast from node 0), which
    keeps this topology cycle-identical to the seed runtime — the
    anchor for every differential test.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.generation = 0
        self.arrived: Set[int] = set()
        self.last_arrival = 0
        self.pending = False

    def local_arrive(self, pid: int, now: int) -> None:
        self.sim.send(
            Message(MsgKind.BARRIER_ARRIVE, src=pid, dst=0), now,
        )

    def on_arrive(self, arrival: int, msg: Message) -> None:
        if msg.src in self.arrived:
            raise RuntimeFault(
                f"processor {msg.src} arrived twice at barrier generation "
                f"{self.generation}"
            )
        self.arrived.add(msg.src)
        self.last_arrival = max(self.last_arrival, arrival)
        if len(self.arrived) == self.sim.num_procs:
            self.pending = True
            self.sim._check_store_drain(arrival)

    def on_release(self, arrival: int, msg: Message) -> None:
        sim = self.sim
        sim.procs[msg.dst].wake(arrival + sim.machine.recv_overhead)

    def _release_time(self, now: int) -> int:
        machine = self.sim.machine
        return (
            max(now, self.last_arrival)
            + machine.barrier_base
            + machine.barrier_per_proc * self.sim.num_procs
        )

    def maybe_release(self, now: int) -> None:
        if not self.pending:
            return
        sim = self.sim
        release_time = self._release_time(now)
        for pid in range(sim.num_procs):
            sim.send(
                Message(MsgKind.BARRIER_RELEASE, src=0, dst=pid),
                release_time,
            )
        self.generation += 1
        self.arrived.clear()
        self.last_arrival = 0
        self.pending = False

    def describe_block(self) -> str:
        return (
            f"barrier generation {self.generation} "
            f"({len(self.arrived)}/{self.sim.num_procs} arrived)"
        )

    def forensics(self) -> List[str]:
        return [
            f"  barrier: generation {self.generation}, "
            f"arrived {sorted(self.arrived) or '[]'}, "
            f"pending_release={self.pending}"
        ]


class TreeBarrier:
    """Combining-tree barrier of fan-in :data:`FANIN` (MCS tree barrier).

    Node ``i``'s parent is ``(i - 1) // FANIN``; its children are
    ``FANIN*i + 1 .. FANIN*i + FANIN`` (clipped to the machine size).
    Arrivals combine upward: a node reports to its parent once its own
    processor and all child subtrees have arrived.  The release
    cascades downward from the root after the store-drain gate opens.
    Both directions are real network messages, so faults and jitter
    apply per hop.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        n = sim.num_procs
        self.parent = [0] * n
        self.children: List[List[int]] = [[] for _ in range(n)]
        for node in range(1, n):
            parent = (node - 1) // FANIN
            self.parent[node] = parent
            self.children[parent].append(node)
        #: arrivals a node needs before reporting up: its own processor
        #: plus one combined report per child subtree
        self.needed = [len(kids) + 1 for kids in self.children]
        self.count = [0] * n
        self.generation = 0
        self.pending = False
        self.last_arrival = 0

    # -- arrival phase -----------------------------------------------------

    def local_arrive(self, pid: int, now: int) -> None:
        self._combine(pid, now)

    def on_arrive(self, arrival: int, msg: Message) -> None:
        # Combining a child's report is handler work on the node's CPU.
        sim = self.sim
        handle = sim.machine.remote_handle
        sim.procs[msg.dst].stolen += handle
        self._combine(msg.dst, arrival + handle)

    def _combine(self, node: int, now: int) -> None:
        self.count[node] += 1
        if self.count[node] < self.needed[node]:
            return
        if node == 0:
            self.last_arrival = max(self.last_arrival, now)
            self.pending = True
            self.sim._check_store_drain(now)
        else:
            self.sim.send(
                Message(
                    MsgKind.BARRIER_ARRIVE, src=node, dst=self.parent[node],
                ),
                now,
            )

    # -- release phase -----------------------------------------------------

    def maybe_release(self, now: int) -> None:
        if not self.pending:
            return
        sim = self.sim
        release_time = max(now, self.last_arrival) + sim.machine.barrier_base
        # Reset the root *before* any release message leaves: no
        # generation-g+1 arrival can exist yet, and once releases are
        # in flight a child subtree may race its next arrival past the
        # root's own (jitter makes single hops non-monotonic).
        self.generation += 1
        self.pending = False
        self.last_arrival = 0
        self.count[0] = 0
        sim.send(
            Message(MsgKind.BARRIER_RELEASE, src=0, dst=0), release_time,
        )

    def on_release(self, arrival: int, msg: Message) -> None:
        sim = self.sim
        node = msg.dst
        if node != 0:
            # Reset before forwarding, same argument as the root: the
            # subtree can only re-arrive after it hears the forwarded
            # release.
            self.count[node] = 0
        kids = self.children[node]
        if kids:
            handle = sim.machine.remote_handle
            sim.procs[node].stolen += handle
            for child in kids:
                sim.send(
                    Message(MsgKind.BARRIER_RELEASE, src=node, dst=child),
                    arrival + handle,
                )
        sim.procs[node].wake(arrival + sim.machine.recv_overhead)

    # -- forensics ---------------------------------------------------------

    def describe_block(self) -> str:
        done = sum(
            1 for node in range(self.sim.num_procs)
            if self.count[node] >= self.needed[node]
        )
        return (
            f"barrier generation {self.generation} "
            f"(tree fan-in {FANIN}, {done}/{self.sim.num_procs} "
            "subtrees combined)"
        )

    def forensics(self) -> List[str]:
        partial = [
            f"node {node}: {self.count[node]}/{self.needed[node]}"
            for node in range(self.sim.num_procs)
            if 0 < self.count[node] < self.needed[node]
        ]
        lines = [
            f"  barrier[tree]: generation {self.generation}, "
            f"fan-in {FANIN}, pending_release={self.pending}"
        ]
        if partial:
            lines.append(
                "  barrier partial combines: " + "; ".join(partial)
            )
        return lines


def build_topology(
    machine: MachineConfig, sim: "Simulator",
) -> Union[CentralBarrier, TreeBarrier]:
    """Instantiates the barrier strategy ``machine`` selects."""
    if validate_barrier_topology(machine.barrier_topology) == "tree":
        return TreeBarrier(sim)
    return CentralBarrier(sim)
