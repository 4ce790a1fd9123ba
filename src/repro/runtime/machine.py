"""Machine models (Table 1 of the paper).

The simulator is parameterized by a :class:`MachineConfig` whose
components decompose the paper's end-to-end latencies:

* a blocking remote read costs
  ``send_overhead + wire_latency + remote_handle + wire_latency +
  recv_overhead`` cycles;
* a local access through the global-address-space layer costs
  ``local_access`` cycles;
* split-phase operations pay ``send_overhead`` at issue and overlap the
  rest — which is exactly why message pipelining wins;
* a ``put`` additionally generates an acknowledgement (one
  ``send_overhead`` on the remote node and one ``recv_overhead`` of
  handler time stolen from the issuing CPU); a ``store`` does not —
  which is why one-way communication wins.

The three presets reproduce Table 1:

=========  ============  ===========
machine    remote (cyc)  local (cyc)
=========  ============  ===========
CM-5       400           30
T3D        85            23
DASH       110           26
=========  ============  ===========
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

#: Memory models the simulator can execute.  ``sc`` is the historical
#: sequentially consistent machine; ``tso``/``pso`` interpose seeded
#: per-processor store buffers (see :mod:`repro.runtime.memory`).
MEMORY_MODELS: Tuple[str, ...] = ("sc", "tso", "pso")

#: Barrier synchronization topologies (Mellor-Crummey & Scott):
#: ``central`` is the seed's single-coordinator rendezvous with a
#: serialized release (cost grows linearly in the processor count);
#: ``tree`` is a combining tree of fan-in 4 whose arrive/release
#: traffic cascades through the network in logarithmic depth.  See
#: :mod:`repro.runtime.topology`.
BARRIER_TOPOLOGIES: Tuple[str, ...] = ("central", "tree")


@dataclass(frozen=True)
class MachineConfig:
    """Cycle-level cost model for the simulated multiprocessor."""

    name: str
    #: Cost of a shared access whose element lives on the issuing node.
    local_access: int
    #: CPU cycles to construct and inject a network message.
    send_overhead: int
    #: CPU cycles to consume a network reply / handle an incoming ack.
    recv_overhead: int
    #: One-way network traversal time.
    wire_latency: int
    #: Time for the remote node to service a request (incl. memory).
    remote_handle: int
    #: Cost of an ordinary ALU/move instruction.
    cpu_op: int = 1
    #: Cost of a local (private) array load/store.
    local_mem: int = 2
    #: Fixed cost of a barrier rendezvous beyond the message exchange.
    barrier_base: int = 40
    #: Per-processor component of the barrier (combining-tree-ish).
    barrier_per_proc: int = 4
    #: Maximum random extra wire delay (adversarial reordering); the
    #: simulator draws uniformly from [0, jitter] per message.
    jitter: int = 0
    #: Which memory model the simulated hardware executes: "sc"
    #: (default — every write is globally performed when it completes),
    #: "tso" (per-processor FIFO store buffers with read forwarding) or
    #: "pso" (per-location FIFOs: same-location write order preserved,
    #: cross-location writes may drain out of order).
    memory_model: str = "sc"
    #: Seed for the store-buffer drain schedule (combined with the
    #: run's network seed; same pair = identical drain timing).
    drain_seed: int = 0
    #: (min, max) cycles a buffered write may linger before draining;
    #: None derives an adversarial window from the remote latency.
    drain_window: Optional[Tuple[int, int]] = None
    #: Which barrier synchronization structure the runtime builds:
    #: "central" (seed-identical rendezvous) or "tree" (combining tree).
    barrier_topology: str = "central"
    #: Largest configuration the preset models; the simulator and the
    #: CLI refuse larger ``--procs`` values.
    max_procs: int = 1024

    @property
    def remote_read_cycles(self) -> int:
        """End-to-end blocking remote read latency (Table 1's number)."""
        return (
            self.send_overhead
            + self.wire_latency
            + self.remote_handle
            + self.wire_latency
            + self.recv_overhead
        )

    def with_jitter(self, jitter: int) -> "MachineConfig":
        return replace(self, jitter=jitter)

    def with_memory_model(
        self,
        model: str,
        drain_seed: int = 0,
        drain_window: Optional[Tuple[int, int]] = None,
    ) -> "MachineConfig":
        """The same machine executing a different memory model."""
        model = validate_memory_model(model)
        return replace(
            self, memory_model=model, drain_seed=drain_seed,
            drain_window=drain_window,
        )

    def with_barrier_topology(self, topology: str) -> "MachineConfig":
        """The same machine with a different barrier structure."""
        return replace(
            self, barrier_topology=validate_barrier_topology(topology),
        )

    @property
    def effective_drain_window(self) -> Tuple[int, int]:
        """The drain window actually used by the store buffers.

        The default upper bound — four blocking round trips — is
        adversarial on purpose: a remote read routinely arrives at the
        owner while the owner's own recent writes still sit buffered,
        so genuinely racy programs show their TSO/PSO reorderings
        within a handful of drain seeds.
        """
        if self.drain_window is not None:
            return self.drain_window
        return (0, 4 * self.remote_read_cycles)


#: Thinking Machines CM-5: high-overhead message layer (Table 1: 400/30).
#: The CM-5 shipped in configurations up to 1024 nodes, which is the
#: scale ROADMAP item 4 targets.
CM5 = MachineConfig(
    name="cm5",
    local_access=30,
    send_overhead=35,
    recv_overhead=35,
    wire_latency=150,
    remote_handle=30,
    max_procs=1024,
)

#: Cray T3D: low-latency remote access (Table 1: 85/23).
T3D = MachineConfig(
    name="t3d",
    local_access=23,
    send_overhead=10,
    recv_overhead=10,
    wire_latency=25,
    remote_handle=15,
    max_procs=2048,
)

#: Stanford DASH: hardware cache coherence (Table 1: 110/26).  The
#: real prototype stopped at 64 processors; keeping the limit makes
#: the CLI's procs-vs-machine diagnostic meaningful.
DASH = MachineConfig(
    name="dash",
    local_access=26,
    send_overhead=15,
    recv_overhead=15,
    wire_latency=32,
    remote_handle=16,
    max_procs=64,
)

MACHINES: Dict[str, MachineConfig] = {
    "cm5": CM5,
    "t3d": T3D,
    "dash": DASH,
}


def get_machine(name: str) -> MachineConfig:
    """Looks up a preset machine model by name."""
    try:
        return MACHINES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(MACHINES))
        raise KeyError(f"unknown machine {name!r} (known: {known})") from None


def validate_memory_model(name: str) -> str:
    """Normalizes a memory-model name, raising ``KeyError`` if unknown."""
    model = name.lower()
    if model not in MEMORY_MODELS:
        known = ", ".join(MEMORY_MODELS)
        raise KeyError(
            f"unknown memory model {name!r} (known: {known})"
        ) from None
    return model


def validate_barrier_topology(name: str) -> str:
    """Normalizes a barrier-topology name, raising ``KeyError`` if unknown."""
    topology = name.lower()
    if topology not in BARRIER_TOPOLOGIES:
        known = ", ".join(BARRIER_TOPOLOGIES)
        raise KeyError(
            f"unknown barrier topology {name!r} (known: {known})"
        ) from None
    return topology

