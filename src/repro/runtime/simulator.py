"""The SPMD machine simulator: a discrete-event interpreter for the IR.

Every virtual processor executes the program's ``main`` with its own
registers, local arrays and cycle clock.  Shared accesses route through
the distributed memory model (:mod:`repro.runtime.memory`) and the
network (:mod:`repro.runtime.network`); synchronization uses the homed
flag/lock state (:mod:`repro.runtime.sync_objects`) and a barrier
topology (:mod:`repro.runtime.topology`).

Timing model (see :mod:`repro.runtime.machine` for the constants):

* ordinary instructions cost ``cpu_op``; private array traffic costs
  ``local_mem``;
* a shared access whose element is local costs ``local_access``;
* a remote blocking access costs the full round trip and stalls the
  processor; a split-phase ``get``/``put`` costs only ``send_overhead``
  at issue and overlaps the rest — ``sync_ctr`` stalls only for
  whatever has not completed yet (message pipelining, §6);
* servicing a remote request steals ``remote_handle`` cycles from the
  owning CPU (CM-5 active-message style); consuming an acknowledgement
  steals ``recv_overhead`` from the issuer — making ``store`` cheaper
  than ``put`` on both ends (one-way communication, §6);
* ``barrier`` is a central rendezvous that also drains outstanding
  stores (the implicit ``all_store_sync``).

Processors (:mod:`repro.runtime.processor`) issue requests; each
synchronization operation has one home-side implementation,
``Simulator.home_sync``, called directly when the object is homed on
the requester and from the ``*_REQ`` message handler otherwise.

The simulator is deterministic for a given seed.  A non-zero machine
``jitter`` randomizes per-message wire time (point-to-point FIFO is
preserved), which the SC litmus tests use as an adversarial network;
under a fault plan the network's ``Transport`` keeps that FIFO.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import DeadlockError, RuntimeFault
from repro.ir.cfg import Function, Module
from repro.ir.instructions import Opcode
from repro.perf import profiler as perf
from repro.runtime.decode import Step, _step_code, decode_function
from repro.runtime.events import CalendarQueue, LinkChannels
from repro.runtime.machine import MachineConfig, validate_memory_model
from repro.runtime.memory import GlobalMemory, StoreBuffers
from repro.runtime.network import FaultPlan, Message, MsgKind, Network, Transport
from repro.runtime.processor import _SYNC_REQUEST, Processor, _land
from repro.runtime.sync_objects import FlagTable, LockTable
from repro.runtime.topology import CentralBarrier, TreeBarrier, build_topology
from repro.runtime.trace import ExecutionTrace

Value = Union[int, float]

#: The reply telling a remote synchronization requester to proceed.
_SYNC_REPLY = {
    Opcode.POST: MsgKind.PUT_ACK,
    Opcode.WAIT: MsgKind.WAIT_GRANT,
    Opcode.LOCK: MsgKind.LOCK_GRANT,
    Opcode.UNLOCK: MsgKind.PUT_ACK,
}
_SYNC_OPCODE = {kind: op for op, kind in _SYNC_REQUEST.items()}


@dataclass
class SimulationResult:
    """Everything a benchmark or test wants from one run."""

    cycles: int
    per_proc_cycles: List[int]
    #: per-processor cycles stalled waiting on communication/sync
    per_proc_wait: List[int]
    instructions: int
    memory: GlobalMemory
    network: Network
    trace: Optional[ExecutionTrace] = None
    #: store-buffer counters when the machine ran a weak model
    weak_stats: Optional[Dict[str, int]] = None

    def snapshot(self) -> Dict[str, List[Value]]:
        return self.memory.snapshot()

    @property
    def retransmits(self) -> int:
        return self.network.stats.retransmits

    @property
    def total_messages(self) -> int:
        return self.network.stats.total_messages

    @property
    def total_wait_cycles(self) -> int:
        """Aggregate stall time across processors (the latency the
        paper's optimizations exist to hide)."""
        return sum(self.per_proc_wait)

    def utilization(self) -> float:
        """Fraction of processor-cycles spent not stalled."""
        total = sum(self.per_proc_cycles)
        if total == 0:
            return 1.0
        return 1.0 - self.total_wait_cycles / total


class Simulator:
    """Drives the processors and the network to completion."""

    #: Processor type instantiated per pid (a seam for the test-side
    #: reference interpreter, tests/runtime/reference_engine.py).
    processor_class = Processor

    def __init__(
        self,
        module: Module,
        num_procs: int,
        machine: MachineConfig,
        seed: int = 0,
        trace: bool = False,
        max_cycles: int = 500_000_000,
        fault_plan: Optional[FaultPlan] = None,
        delay_fences: Optional[frozenset] = None,
    ):
        if num_procs > machine.max_procs:
            raise RuntimeFault(
                f"{num_procs} processors exceeds the {machine.name} "
                f"model's limit of {machine.max_procs}"
            )
        self.module = module
        self.num_procs = num_procs
        self.machine = machine
        self.max_cycles = max_cycles
        self.memory = GlobalMemory(module, num_procs)
        #: instruction uids that must drain the store buffer before
        #: executing (targets of compiler-placed delay edges)
        self.delay_fences: frozenset = delay_fences or frozenset()
        model = validate_memory_model(machine.memory_model)
        self.weak: Optional[StoreBuffers] = None
        if model != "sc":
            self.weak = StoreBuffers(
                model,
                num_procs,
                seed=(seed << 8) ^ machine.drain_seed,
                window=machine.effective_drain_window,
                memory=self.memory,
            )
        self.network = Network(
            machine.wire_latency, machine.jitter, seed=seed,
            plan=fault_plan,
        )
        self.flags = FlagTable()
        self.locks = LockTable()
        self.topology: Union[CentralBarrier, TreeBarrier] = build_topology(
            machine, self,
        )
        self.trace: Optional[ExecutionTrace] = (
            ExecutionTrace(num_procs) if trace else None
        )
        self.outstanding_stores = 0
        #: bails out of a fused run to an ``OPS`` handler, by opcode
        #: (counted on the bail path only; the fused path pays nothing)
        self.bails: Counter = Counter()
        self.store_sync_waiters: List[int] = []
        self._calendar = CalendarQueue()
        self._links = LinkChannels()
        # The only two entry points into the event core, bound per
        # instance: the hot path calls them directly, and the test-side
        # reference engine rebinds them to its flat heap.
        self._push: Callable[[int, tuple], None] = self._calendar.push
        self._deliver: Callable[[int, Message], None] = self._deliver_link
        #: the reliability protocol (fault plans only); ``send`` is bound
        #: once, so the perfect network never asks for a plan
        self.transport: Optional[Transport] = None
        self.send: Callable[[Message, int], None] = self._send_perfect
        if fault_plan is not None:
            self.transport = Transport(self.network, machine, self)
            self.send = self.transport.send
        self._decoded_cache: Dict[str, Dict[str, List[Step]]] = {}
        self.procs = [
            self.processor_class(pid, self) for pid in range(num_procs)
        ]
        self._handlers: Dict[MsgKind, Callable[[int, Message], None]] = {
            MsgKind.GET_REQ: self._on_get_req,
            MsgKind.GET_REPLY: self._on_get_reply,
            MsgKind.PUT_REQ: self._on_put_req,
            MsgKind.STORE_REQ: self._on_put_req,
            MsgKind.PUT_ACK: self._on_completion,
            MsgKind.WAIT_GRANT: self._on_completion,
            MsgKind.LOCK_GRANT: self._on_completion,
            **dict.fromkeys(_SYNC_OPCODE, self._on_sync_req),
            MsgKind.BARRIER_ARRIVE: self.topology.on_arrive,
            MsgKind.BARRIER_RELEASE: self.topology.on_release,
        }

    # -- infrastructure used by processors -----------------------------------

    def decoded(self, function: Function) -> Dict[str, List[Step]]:
        """Decoded step lists for ``function`` (once per simulator)."""
        code = self._decoded_cache.get(function.name)
        if code is None:
            before = _step_code.cache_info()
            with perf.pass_timer("simulate.decode"):
                code = decode_function(function, self)
            self._decoded_cache[function.name] = code
            after = _step_code.cache_info()
            hits = after.hits - before.hits
            perf.count("decode.steps", hits + after.misses - before.misses)
            perf.count("decode.code_memo_hits", hits)
        return code

    def _send_perfect(self, msg: Message, now: int) -> None:
        """``send`` on the perfect network; ``_deliver`` is looked up per
        call, so the reference engine's rebinding takes effect."""
        self._deliver(self.network.send(msg, now), msg)

    def schedule_resume(self, pid: int, time: int) -> None:
        self._push(time, ("resume", pid))

    def schedule_drain(self, pid: int, entry_id: int, time: int) -> None:
        """Queues a background store-buffer drain (weak models only)."""
        self._push(time, ("drain", pid, entry_id))

    def _deliver_link(self, arrival: int, msg: Message) -> None:
        # Perfect-network FIFO bumps make per-link arrivals strictly
        # increasing, so the ring head always corresponds to the
        # earliest pending ("link", ring) event on the calendar.
        self._calendar.push(
            arrival, self._links.enqueue((msg.src, msg.dst), msg)
        )

    # -- home-side synchronization ----------------------------------------------

    def home_sync(self, op: Opcode, key: Tuple[str, int], requester: int,
                  now: int) -> bool:
        """The home node's half of one post/wait/lock/unlock on ``key``
        — the only implementation, reached directly when the object is
        homed on the requester and through :meth:`_on_sync_req`
        otherwise.  Returns whether the requester may proceed; False
        leaves it queued at the home until a post or unlock grants it.
        Processors this operation releases are granted at ``now``."""
        if op is Opcode.POST:
            for waiter in self.flags.post(key):
                self._grant(MsgKind.WAIT_GRANT, waiter, key, now)
            return True
        if op is Opcode.WAIT:
            if self.flags.is_posted(key):
                return True
            self.flags.add_waiter(key, requester)
            return False
        if op is Opcode.LOCK:
            return self.locks.acquire(key, requester)
        next_holder = self.locks.release(key, requester)
        if next_holder is not None:
            self._grant(MsgKind.LOCK_GRANT, next_holder, key, now)
        return True

    def _grant(self, kind: MsgKind, pid: int, key: Tuple[str, int],
               now: int) -> None:
        """Wakes a processor parked at ``key``'s home: in place when it
        is the home itself, by a grant message otherwise."""
        home = self.memory.owner_of_flat(*key)
        if pid == home:
            self.procs[pid].wake(now + self.machine.remote_handle)
        else:
            self.send(Message(kind, src=home, dst=pid), now)

    # -- message handling -----------------------------------------------------------
    #
    # Requests are served at the element's home: the handler steals
    # ``remote_handle`` cycles from the home CPU and replies once they
    # have passed.  Requesters resolved the element, so handlers apply
    # flat offsets and never fault on an index.

    def _handle_message(self, arrival: int, msg: Message) -> None:
        """Dispatches one delivered logical message to its handler."""
        handler = self._handlers.get(msg.kind)
        if handler is None:
            raise RuntimeFault(f"unhandled message kind {msg.kind}")
        handler(arrival, msg)

    def _on_get_req(self, arrival: int, msg: Message) -> None:
        machine = self.machine
        self.procs[msg.dst].stolen += machine.remote_handle
        self.send(
            Message(
                MsgKind.GET_REPLY,
                src=msg.dst,
                dst=msg.src,
                var=msg.var,
                value=self.memory.read_flat(msg.var, msg.flat),
                dest_temp=msg.dest_temp,
                local_array=msg.local_array,
                local_flat=msg.local_flat,
                counter=msg.counter,
                event=msg.event,
            ),
            arrival + machine.remote_handle,
        )

    def _on_get_reply(self, arrival: int, msg: Message) -> None:
        if msg.event is not None:
            msg.event.value = msg.value
        proc = self.procs[msg.dst]
        if not proc.frames:
            # The processor already returned; the fetched value has
            # no landing pad left (legal only for dead gets).
            return
        _land(proc.frames[-1], msg.dest_temp, msg.local_array,
              msg.local_flat, msg.value)
        self._on_completion(arrival, msg)

    def _on_put_req(self, arrival: int, msg: Message) -> None:
        """PUT_REQ and STORE_REQ: the same write, acknowledged or not."""
        machine = self.machine
        self.memory.write_flat(msg.var, msg.flat, msg.value)
        self.procs[msg.dst].stolen += machine.remote_handle
        if msg.kind is MsgKind.STORE_REQ:
            self.outstanding_stores -= 1
            self._check_store_drain(arrival)
        else:
            self.send(
                Message(MsgKind.PUT_ACK, src=msg.dst, dst=msg.src,
                        counter=msg.counter),
                arrival + machine.remote_handle,
            )

    def _on_sync_req(self, arrival: int, msg: Message) -> None:
        """POST/WAIT/LOCK/UNLOCK_REQ: run the operation at its home."""
        op = _SYNC_OPCODE[msg.kind]
        served = arrival + self.machine.remote_handle
        proceeds = self.home_sync(op, (msg.var, msg.flat), msg.src, served)
        self.procs[msg.dst].stolen += self.machine.remote_handle
        if proceeds:
            self.send(Message(_SYNC_REPLY[op], src=msg.dst, dst=msg.src),
                      served)

    def _on_completion(self, arrival: int, msg: Message) -> None:
        """GET_REPLY / PUT_ACK / WAIT_GRANT / LOCK_GRANT: one remote
        operation of ``msg.dst`` finished — count it off its sync
        counter, or wake the processor blocked on it."""
        proc = self.procs[msg.dst]
        if msg.counter is not None:
            self._complete_counter(proc, msg.counter, arrival)
        else:
            proc.wake(arrival + self.machine.recv_overhead)

    def _complete_counter(self, proc: Processor, counter: int,
                          arrival: int) -> None:
        count = proc.counters.get(counter, 0)
        if count <= 0:
            raise RuntimeFault(
                f"P{proc.pid}: counter {counter} completion underflow"
            )
        proc.counters[counter] = count - 1
        instr = proc.blocked_on
        if (
            instr is not None
            and instr.op is Opcode.SYNC_CTR
            and instr.counter == counter
            and count == 1
        ):
            # The sync_ctr re-executes on wake and now falls through.
            proc.wake(arrival + self.machine.recv_overhead)
        else:
            proc.stolen += self.machine.recv_overhead

    def _check_store_drain(self, now: int) -> None:
        if self.outstanding_stores:
            return
        self.topology.maybe_release(now)
        if self.store_sync_waiters:
            waiters, self.store_sync_waiters = self.store_sync_waiters, []
            for pid in waiters:
                self.procs[pid].wake(now)

    # -- deadlock forensics ---------------------------------------------------------

    def _describe_block_reason(self, proc: Processor) -> str:
        """A human-readable account of why ``proc`` is parked, read off
        the instruction it blocked at.  The frame's registers are as
        they were at issue, so the element resolves again."""
        instr = proc.blocked_on
        if instr is None:
            return "nothing (ready)"
        op = instr.op
        if op is Opcode.SYNC_CTR:
            outstanding = proc.counters.get(instr.counter, 0)
            return (
                f"sync_ctr #{instr.counter} "
                f"({outstanding} completion(s) outstanding)"
            )
        if op is Opcode.STORE_SYNC:
            return (
                f"all_store_sync ({self.outstanding_stores} one-way "
                "store(s) undrained)"
            )
        if op is Opcode.BARRIER:
            return self.topology.describe_block()
        key = (instr.var, self.memory.resolve(
            instr.var, proc.indices_of(instr))[1])
        element = f"{key[0]}[{key[1]}]"
        if op is Opcode.WAIT:
            return f"wait {element}"
        if op is Opcode.LOCK:
            holder = self.locks.holder(key)
            held = f" held by P{holder}" if holder is not None else ""
            return f"lock {element}{held}"
        return f"a reply to {op.value} {element}"

    def deadlock_report(self) -> str:
        """Multi-line forensics: processors, sync objects, network."""
        lines = ["processors:"]
        for proc in self.procs:
            if not proc.frames:
                lines.append(
                    f"  P{proc.pid}: done "
                    f"(clock {proc.clock}, {proc.instructions} instrs)"
                )
                continue
            frame = proc.frames[-1]
            pc = f"{frame.function.name}:{frame.block}+{frame.index}"
            state = "ready" if proc.blocked_on is None else "blocked"
            lines.append(
                f"  P{proc.pid}: {state} at {pc} on "
                f"{self._describe_block_reason(proc)} "
                f"(clock {proc.clock}, {proc.instructions} instrs)"
            )
        lines.append("sync objects:")
        posted = self.flags.posted_keys()
        lines.append(
            "  flags posted: "
            + (", ".join(f"{v}[{f}]" for v, f in posted) if posted
               else "none")
        )
        for key, pids in self.flags.waiting().items():
            waiters = ", ".join(f"P{pid}" for pid in pids)
            lines.append(f"  flag {key[0]}[{key[1]}] awaited by {waiters}")
        for key, (holder, queue) in self.locks.held().items():
            queued = (
                " (queue: " + ", ".join(f"P{p}" for p in queue) + ")"
                if queue else ""
            )
            lines.append(
                f"  lock {key[0]}[{key[1]}] held by P{holder}{queued}"
            )
        lines.extend(self.topology.forensics())
        lines.append("network:")
        lines.append(
            f"  outstanding one-way stores: {self.outstanding_stores}"
        )
        if self.transport is not None:
            lines.extend(self.transport.forensics())
        return "\n".join(lines)

    # -- main loop ------------------------------------------------------------------

    @perf.pass_timer("simulate.run")
    def run(self) -> SimulationResult:
        """Calendar-queue loop: one heap pop per *timestamp*, with all
        same-time events dispatched in insertion order (what a flat
        heap with a sequence-number tie-break would produce) and pushes
        landing on the live batch mid-dispatch."""
        for pid in range(self.num_procs):
            self.schedule_resume(pid, 0)
        calendar = self._calendar
        procs = self.procs
        weak = self.weak
        while calendar.times:
            time, batch = calendar.pop_batch()
            i = 0
            while i < len(batch):
                payload = batch[i]
                i += 1
                tag = payload[0]
                if tag == "link":
                    self._handle_message(time, payload[1].popleft())
                elif tag == "resume":
                    proc = procs[payload[1]]
                    if proc.frames:
                        proc.advance(time)
                elif tag == "drain":
                    weak.drain(payload[1], payload[2])
                else:  # "xport": the reliability protocol's own events
                    self.transport.handle(time, payload)
            calendar.retire(time)
        return self._finish()

    def _finish(self) -> SimulationResult:
        if any(p.frames for p in self.procs):
            blocked = [
                f"P{p.pid} blocked on {self._describe_block_reason(p)}"
                for p in self.procs
                if p.blocked_on is not None
            ]
            raise DeadlockError(
                "simulation stalled with no events pending: "
                + ("; ".join(blocked) if blocked else "no blocked procs?"),
                report=self.deadlock_report(),
            )
        if self.weak is not None:
            # Normally every buffered write's drain event has already
            # fired; a final flush keeps snapshots total regardless.
            self.weak.flush_all()
        return SimulationResult(
            cycles=max(p.clock for p in self.procs),
            per_proc_cycles=[p.clock for p in self.procs],
            per_proc_wait=[p.wait_cycles for p in self.procs],
            instructions=sum(p.instructions for p in self.procs),
            memory=self.memory,
            network=self.network,
            trace=self.trace,
            weak_stats=(
                self.weak.stats.as_dict() if self.weak is not None else None
            ),
        )


def run_module(
    module: Module,
    num_procs: int,
    machine: MachineConfig,
    seed: int = 0,
    trace: bool = False,
    max_cycles: int = 500_000_000,
    fault_plan: Optional[FaultPlan] = None,
    delay_fences: Optional[frozenset] = None,
) -> SimulationResult:
    """Convenience wrapper: simulate ``module`` to completion."""
    sim = Simulator(
        module, num_procs, machine, seed=seed, trace=trace,
        max_cycles=max_cycles, fault_plan=fault_plan,
        delay_fences=delay_fences,
    )
    return sim.run()
