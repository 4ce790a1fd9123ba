"""Distributed-memory machine simulator.

The execution substrate standing in for the paper's CM-5: per-processor
cycle clocks, a latency/overhead network model (Table 1 presets),
split-phase memory operations with synchronizing counters, one-way
stores drained at barriers, and homed flag/lock/barrier synchronization.
"""

from repro.runtime.consistency import (
    find_violation_witness,
    is_sequentially_consistent,
)
from repro.runtime.events import CalendarQueue, LinkChannels
from repro.runtime.machine import (
    BARRIER_TOPOLOGIES,
    CM5,
    DASH,
    MACHINES,
    T3D,
    MachineConfig,
    get_machine,
    validate_barrier_topology,
)
from repro.runtime.memory import GlobalMemory
from repro.runtime.network import (
    FaultPlan,
    Message,
    MsgKind,
    Network,
    NetworkStats,
)
from repro.runtime.simulator import (
    Processor,
    SimulationResult,
    Simulator,
    run_module,
)
from repro.runtime.topology import (
    CentralBarrier,
    TreeBarrier,
    build_topology,
)
from repro.runtime.trace import ExecutionTrace, MemEvent

__all__ = [
    "MachineConfig",
    "get_machine",
    "MACHINES",
    "CM5",
    "T3D",
    "DASH",
    "BARRIER_TOPOLOGIES",
    "validate_barrier_topology",
    "CentralBarrier",
    "TreeBarrier",
    "build_topology",
    "CalendarQueue",
    "LinkChannels",
    "GlobalMemory",
    "Network",
    "NetworkStats",
    "FaultPlan",
    "Message",
    "MsgKind",
    "Simulator",
    "Processor",
    "SimulationResult",
    "run_module",
    "ExecutionTrace",
    "MemEvent",
    "is_sequentially_consistent",
    "find_violation_witness",
]
