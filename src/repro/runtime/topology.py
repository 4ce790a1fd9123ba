"""Pluggable barrier synchronization topologies.

The seed simulator hard-wired one barrier: every processor sends a
``BARRIER_ARRIVE`` to node 0, which, once all have arrived *and* every
one-way store has drained, broadcasts ``BARRIER_RELEASE`` messages
after a serialized release cost of ``barrier_base + barrier_per_proc *
num_procs`` cycles.  That linear release term is exactly what
Mellor-Crummey & Scott's scalable barriers eliminate, and at the
256-1024 processor scale of ROADMAP item 4 it dominates barrier cost
(4,136 cycles per release at 1024 procs on the CM-5 model vs. a flat
40).

This module extracts the barrier into a strategy object selected by
:attr:`MachineConfig.barrier_topology`:

``central``
    The seed rendezvous, bit-for-bit: same messages, same release
    formula, same store-drain gate.  The topology tests pin it
    against the test-side reference engine.

``sense``
    A sense-reversing barrier: arrivals are unchanged (every processor
    still notifies the coordinator), but the release is modeled as a
    single sense-flag flip — ``barrier_base`` cycles, independent of
    the processor count.  Release notifications still travel the
    (fault-injectable) network.

``tree``
    A combining tree of fan-in ``tree_fanin`` (node ``i``'s parent is
    ``(i - 1) // fanin``).  A processor's own arrival combines locally
    at its node; when a node has heard from its own processor and every
    child subtree it sends one combined ``BARRIER_ARRIVE`` up.  The
    root's completion gates on store drain like the others, then the
    release cascades back down the tree, so both phases cost
    ``O(log_fanin P)`` network hops instead of ``O(P)`` serialized
    work.  Combining and forwarding steal ``remote_handle`` cycles from
    the node's CPU (active-message style), matching how the simulator
    charges every other handler.

All barrier traffic flows through ``Simulator.send`` and therefore
composes with jitter, fault plans (drop/duplicate/partition) and the
reliability protocol unchanged; the store-drain gate (the implicit
``all_store_sync``) is preserved by every topology.  Because a barrier
release never carries data, topologies differ only in *timing*:
deterministic programs produce identical final snapshots under all
three (a property the topology tests assert).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.runtime.machine import (
    MachineConfig,
    validate_barrier_topology,
    validate_tree_fanin,
)
from repro.runtime.network import Message, MsgKind
from repro.runtime.sync_objects import BarrierState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.simulator import Simulator


class BarrierTopology:
    """Strategy interface the simulator delegates barrier traffic to."""

    name = "abstract"

    def __init__(self, sim: "Simulator"):
        self.sim = sim

    # -- the four entry points --------------------------------------------

    def local_arrive(self, pid: int, now: int) -> None:
        """Processor ``pid`` executed a BARRIER opcode at ``now`` (its
        ``send_overhead`` is already charged)."""
        raise NotImplementedError

    def on_arrive(self, arrival: int, msg: Message) -> None:
        """A ``BARRIER_ARRIVE`` message landed at ``msg.dst``."""
        raise NotImplementedError

    def on_release(self, arrival: int, msg: Message) -> None:
        """A ``BARRIER_RELEASE`` message landed at ``msg.dst``."""
        raise NotImplementedError

    def maybe_release(self, now: int) -> None:
        """Called whenever the store-drain gate opens (all one-way
        stores drained); fires the pending release, if any."""
        raise NotImplementedError

    # -- forensics ---------------------------------------------------------

    @property
    def pending_release(self) -> bool:
        raise NotImplementedError

    def generation(self) -> int:
        raise NotImplementedError

    def describe_block(self) -> str:
        """One line for ``_describe_block_reason``."""
        raise NotImplementedError

    def forensics(self) -> List[str]:
        """Lines for the deadlock report's sync-object section."""
        raise NotImplementedError


class CentralBarrier(BarrierTopology):
    """The seed's central rendezvous, extracted verbatim.

    Release cost is ``barrier_base + barrier_per_proc * num_procs``
    past the last arrival (a serialized broadcast from node 0), which
    keeps this topology cycle-identical to the seed runtime — the
    anchor for every differential test.
    """

    name = "central"

    def __init__(self, sim: "Simulator"):
        super().__init__(sim)
        self.state = BarrierState(sim.num_procs)

    def local_arrive(self, pid: int, now: int) -> None:
        self.sim.send(
            Message(MsgKind.BARRIER_ARRIVE, src=pid, dst=0), now,
        )

    def on_arrive(self, arrival: int, msg: Message) -> None:
        if self.state.arrive(msg.src, arrival):
            self.state.pending_release = True
            self.sim._check_store_drain(arrival)

    def on_release(self, arrival: int, msg: Message) -> None:
        sim = self.sim
        sim.procs[msg.dst].wake(arrival + sim.machine.recv_overhead)

    def _release_time(self, now: int) -> int:
        machine = self.sim.machine
        return (
            max(now, self.state.last_arrival_time)
            + machine.barrier_base
            + machine.barrier_per_proc * self.sim.num_procs
        )

    def maybe_release(self, now: int) -> None:
        if not self.state.pending_release:
            return
        sim = self.sim
        release_time = self._release_time(now)
        for pid in range(sim.num_procs):
            sim.send(
                Message(MsgKind.BARRIER_RELEASE, src=0, dst=pid),
                release_time,
            )
        self.state.release()

    @property
    def pending_release(self) -> bool:
        return self.state.pending_release

    def generation(self) -> int:
        return self.state.generation

    def describe_block(self) -> str:
        return (
            f"barrier generation {self.state.generation} "
            f"({len(self.state.arrived)}/{self.sim.num_procs} arrived)"
        )

    def forensics(self) -> List[str]:
        state = self.state
        return [
            f"  barrier: generation {state.generation}, "
            f"arrived {sorted(state.arrived) or '[]'}, "
            f"pending_release={state.pending_release}"
        ]


class SenseBarrier(CentralBarrier):
    """Sense-reversing variant: arrivals as central, flat release.

    Mellor-Crummey & Scott's sense-reversing barrier releases by
    flipping one shared sense flag that every spinner observes, so the
    release carries no per-processor serialization.  Here that means
    the release fires ``barrier_base`` cycles after the last arrival
    (and after stores drain) with *no* ``barrier_per_proc`` term.
    """

    name = "sense"

    def _release_time(self, now: int) -> int:
        return (
            max(now, self.state.last_arrival_time)
            + self.sim.machine.barrier_base
        )


class TreeBarrier(BarrierTopology):
    """Combining-tree barrier of fan-in ``k`` (MCS tree barrier).

    Node ``i``'s parent is ``(i - 1) // k``; its children are
    ``k*i + 1 .. k*i + k`` (clipped to the machine size).  Arrivals
    combine upward: a node reports to its parent once its own
    processor and all child subtrees have arrived.  The release
    cascades downward from the root after the store-drain gate opens.
    Both directions are real network messages, so faults and jitter
    apply per hop.
    """

    name = "tree"

    def __init__(self, sim: "Simulator", fanin: int):
        super().__init__(sim)
        self.fanin = validate_tree_fanin(fanin)
        n = sim.num_procs
        self.parent = [0] * n
        self.children: List[List[int]] = [[] for _ in range(n)]
        for node in range(1, n):
            parent = (node - 1) // fanin
            self.parent[node] = parent
            self.children[parent].append(node)
        #: arrivals a node needs before reporting up: its own processor
        #: plus one combined report per child subtree
        self.needed = [len(kids) + 1 for kids in self.children]
        self.count = [0] * n
        self._generation = 0
        self._pending = False
        self._root_time = 0

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
            self._root_time = max(self._root_time, now)
            self._pending = True
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
        if not self._pending:
            return
        sim = self.sim
        release_time = max(now, self._root_time) + sim.machine.barrier_base
        # Reset the root *before* any release message leaves: no
        # generation-g+1 arrival can exist yet, and once releases are
        # in flight a child subtree may race its next arrival past the
        # root's own (jitter makes single hops non-monotonic).
        self._generation += 1
        self._pending = False
        self._root_time = 0
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

    @property
    def pending_release(self) -> bool:
        return self._pending

    def generation(self) -> int:
        return self._generation

    def describe_block(self) -> str:
        done = sum(
            1 for node in range(self.sim.num_procs)
            if self.count[node] >= self.needed[node]
        )
        return (
            f"barrier generation {self._generation} "
            f"(tree fan-in {self.fanin}, {done}/{self.sim.num_procs} "
            "subtrees combined)"
        )

    def forensics(self) -> List[str]:
        partial = [
            f"node {node}: {self.count[node]}/{self.needed[node]}"
            for node in range(self.sim.num_procs)
            if 0 < self.count[node] < self.needed[node]
        ]
        lines = [
            f"  barrier[{self.name}]: generation {self._generation}, "
            f"fan-in {self.fanin}, pending_release={self._pending}"
        ]
        if partial:
            lines.append(
                "  barrier partial combines: " + "; ".join(partial)
            )
        return lines


def build_topology(machine: MachineConfig, sim: "Simulator") -> BarrierTopology:
    """Instantiates the barrier strategy ``machine`` selects."""
    topology = validate_barrier_topology(machine.barrier_topology)
    if topology == "central":
        return CentralBarrier(sim)
    if topology == "sense":
        return SenseBarrier(sim)
    return TreeBarrier(sim, machine.tree_fanin)
