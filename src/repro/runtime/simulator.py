"""The SPMD machine simulator: a discrete-event interpreter for the IR.

Every virtual processor executes the program's ``main`` with its own
registers, local arrays and cycle clock.  Shared accesses route through
the distributed memory model (:mod:`repro.runtime.memory`) and the
network (:mod:`repro.runtime.network`); synchronization uses the homed
flag/lock/barrier state (:mod:`repro.runtime.sync_objects`).

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

Every opcode with simulator-visible effects has one handler in
``Processor.OPS`` (bound into the decoded step, so nothing dispatches
on opcodes at run time): ``_access`` for the five shared-access
opcodes, ``_sync`` for post/wait/lock/unlock.  The requester resolves
the element — owner, flat offset, every bounds check — and a request
carries the flat offset; the home applies it.  Each synchronization
operation has one home-side implementation, ``Simulator.home_sync``,
called directly when the object is homed on the requester and from the
``*_REQ`` message handler otherwise.

The simulator is deterministic for a given seed.  A non-zero machine
``jitter`` randomizes per-message wire time (point-to-point FIFO is
preserved), which the SC litmus tests use as an adversarial network.

Reliability protocol (fault injection)
--------------------------------------

With a :class:`~repro.runtime.network.FaultPlan` installed the wire may
drop, duplicate, spike or partition traffic, so every logical message
travels inside a sequence-numbered envelope:

* the **sender** keeps an unacked-envelope table per (src, dst) link
  and a retransmission timer per envelope — exponential backoff from
  :meth:`MachineConfig.retransmit_timeout`, capped at the plan's
  ``retry_cap``, after which :class:`NetworkFault` is raised (the
  protocol turns silent loss into a diagnosis, never a hang);
* the **receiver** acknowledges every arriving envelope with a
  transport-level ``NET_ACK`` (acks are themselves faultable — a lost
  ack just causes one more retransmission), suppresses duplicates, and
  releases envelopes to the message handlers strictly in sequence
  order — re-establishing the point-to-point FIFO guarantee that
  one-way ``store`` correctness rests on.  Acks are **cumulative**:
  besides echoing the received seq they carry the link's in-order
  delivery floor, so an envelope whose own acks were all lost is still
  cleared by any later ack on the link — exhausting ``retry_cap``
  then requires sustained link death, not an unlucky streak;
* handlers therefore observe each logical message **exactly once and
  in order**, so ``PUT_REQ``/``STORE_REQ``/sync traffic stays
  idempotent under retransmission and ``outstanding_stores`` drains
  exactly as on a perfect network.

Transport acks are pure network bookkeeping: they steal no handler
cycles from either CPU.  Timing under faults differs from the perfect
network (that is the point), but final memory for deterministic
programs does not.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import DeadlockError, NetworkFault, RuntimeFault
from repro.ir.cfg import Function, Module
from repro.ir.instructions import Const, Instr, Opcode, Operand, Temp
from repro.perf import profiler as perf
from repro.runtime.decode import (
    PENDING, Step, _Pending, _step_code, decode_function,
)
from repro.runtime.events import CalendarQueue, LinkChannels
from repro.runtime.machine import MachineConfig, validate_memory_model
from repro.runtime.memory import GlobalMemory, StoreBuffers
from repro.runtime.network import FaultPlan, Message, MsgKind, Network
from repro.runtime.sync_objects import FlagTable, LockTable
from repro.runtime.topology import BarrierTopology, build_topology
from repro.runtime.trace import ExecutionTrace, SyncRecord

Value = Union[int, float]

#: Synchronization opcodes that act as full fences under the weak
#: memory models: the executing processor's store buffer drains
#: (applies globally, in issue order) before the operation proceeds.
#: ``sync_ctr`` is deliberately absent — waiting for one's own
#: outstanding split-phase *reads* does not publish buffered writes on
#: TSO hardware.  Where a sync_ctr enforces a compiler-placed delay
#: edge, the edge target's uid is in ``Simulator.delay_fences`` and
#: drains there instead.
_FENCE_OPCODES = frozenset(
    {
        Opcode.STORE_SYNC,
        Opcode.POST,
        Opcode.WAIT,
        Opcode.LOCK,
        Opcode.UNLOCK,
        Opcode.BARRIER,
    }
)

#: Request kind of each homed synchronization opcode, and the reply
#: that tells a remote requester it may proceed.
_SYNC_REQUEST = {
    Opcode.POST: MsgKind.POST_REQ,
    Opcode.WAIT: MsgKind.WAIT_REQ,
    Opcode.LOCK: MsgKind.LOCK_REQ,
    Opcode.UNLOCK: MsgKind.UNLOCK_REQ,
}
_SYNC_OPCODE = {kind: op for op, kind in _SYNC_REQUEST.items()}
_SYNC_REPLY = {
    Opcode.POST: MsgKind.PUT_ACK,
    Opcode.WAIT: MsgKind.WAIT_GRANT,
    Opcode.LOCK: MsgKind.LOCK_GRANT,
    Opcode.UNLOCK: MsgKind.PUT_ACK,
}


class ProcState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"


@dataclass
class _Frame:
    function: Function
    block: str
    index: int
    regs: Dict[str, Value]
    arrays: Dict[str, List[Value]]
    #: decoded step lists per block
    code: Dict[str, List[Step]]
    #: caller temp receiving this frame's return value
    result_dest: Optional[Temp] = None


def _land(frame: _Frame, dest: Optional[str], local_array: Optional[str],
          local_flat: Optional[int], value) -> None:
    """Puts a read's value (or PENDING) where the get said to land it."""
    if local_array is not None:
        frame.arrays[local_array][local_flat] = value
    else:
        frame.regs[dest] = value


@dataclass
class _Retransmit:
    """Sender-side state for one unacked envelope."""

    msg: Message
    attempts: int = 0


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

    # -- reliability-protocol observability --------------------------------

    @property
    def retransmits(self) -> int:
        return self.network.stats.retransmits

    @property
    def drops(self) -> int:
        return self.network.stats.total_drops

    @property
    def duplicates_suppressed(self) -> int:
        return self.network.stats.duplicates_suppressed

    def fault_summary(self) -> Dict[str, object]:
        """Drop/duplicate/retransmit counters and the retry histogram."""
        return self.network.stats.fault_summary()

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


class Processor:
    """One virtual processor's architectural state."""

    def __init__(self, pid: int, sim: "Simulator"):
        self.pid = pid
        self.sim = sim
        self.clock = 0
        self.stolen = 0
        #: cycles spent stalled on remote completions / synchronization
        self.wait_cycles = 0
        self.state = ProcState.READY
        self.block_reason: Optional[Tuple] = None
        self.counters: Dict[int, int] = {}
        self.instructions = 0
        #: barriers this processor has executed (the per-proc
        #: generation serial the precedence oracle pairs arrivals by)
        self.barrier_no = 0
        module = sim.module
        main = module.functions[sim.entry]
        self.frames: List[_Frame] = [self._make_frame(main, None)]

    def _make_frame(self, function: Function,
                    result_dest: Optional[Temp]) -> _Frame:
        regs: Dict[str, Value] = {
            "MYPROC": self.pid,
            "PROCS": self.sim.num_procs,
        }
        arrays = {
            name: [0.0 if array.kind.value == "double" else 0]
            * array.element_count
            for name, array in function.local_arrays.items()
        }
        return _Frame(
            function=function,
            block=function.entry.label,
            index=0,
            regs=regs,
            arrays=arrays,
            result_dest=result_dest,
            code=self.sim.decoded(function),
        )

    # -- operand evaluation -----------------------------------------------

    def value(self, operand: Operand) -> Value:
        if isinstance(operand, Const):
            return operand.value
        frame = self.frames[-1]
        try:
            result = frame.regs[operand.name]
        except KeyError:
            raise RuntimeFault(
                f"P{self.pid}: use of undefined temp %{operand.name}"
            ) from None
        if isinstance(result, _Pending):
            raise RuntimeFault(
                f"P{self.pid}: read of %{operand.name} before its get "
                "completed (missing sync_ctr — compiler bug)"
            )
        return result

    def int_value(self, operand: Operand) -> int:
        return int(self.value(operand))

    def indices_of(self, instr: Instr) -> Tuple[int, ...]:
        return tuple(self.int_value(op) for op in instr.indices)

    def set_reg(self, temp: Temp, value: Value) -> None:
        self.frames[-1].regs[temp.name] = value

    # -- the interpreter loop -----------------------------------------------

    def advance(self, now: int) -> None:
        """Executes decoded steps until the processor blocks or finishes.

        Step return protocol: ``>= 0`` continue at that index in the
        same block, ``-1`` refetch frame/block (control transfer),
        ``-2`` blocked or done.  The cycle-budget check runs per step;
        every loop crosses a block boundary (a step), so a runaway
        program still faults.
        """
        if now > self.clock:
            # The gap between our last local work and the wake event is
            # stall time (waiting on replies, flags, locks, barriers).
            self.wait_cycles += now - self.clock
            self.clock = now
        self.clock += self.stolen
        self.stolen = 0
        self.state = ProcState.READY
        self.block_reason = None
        max_cycles = self.sim.max_cycles
        frames = self.frames
        while True:
            frame = frames[-1]
            steps = frame.code[frame.block]
            index = frame.index
            regs = frame.regs
            while True:
                if self.clock > max_cycles:
                    frame.index = index
                    raise RuntimeFault(
                        f"P{self.pid}: exceeded cycle budget {max_cycles} "
                        "(runaway loop?)"
                    )
                result = steps[index](self, frame, regs)
                if result >= 0:
                    index = result
                    continue
                if result == -1:
                    break  # control transfer: refetch frame/block
                return  # blocked or done

    def _execute(self, instr: Instr, frame: _Frame) -> bool:
        """Runs one instruction with simulator-visible effects through
        its :attr:`OPS` handler.  Under a weak memory model every slow
        step comes through here so that synchronization and
        compiler-placed delay targets fence the store buffer first
        (blocking ops may re-execute on wake; re-flushing an empty
        buffer is a no-op); under SC the decoder binds the handler into
        the step directly.  Handlers return True having moved
        ``frame.index`` past the instruction (or transferred control),
        False when blocked/done."""
        sim = self.sim
        if sim.weak is not None and (
            instr.op in _FENCE_OPCODES or instr.uid in sim.delay_fences
        ):
            sim.weak.flush(self.pid)
        return self.OPS[instr.op](self, instr, frame)

    # -- shared data accesses ---------------------------------------------------

    def _access(self, instr: Instr, frame: _Frame) -> bool:
        """read_shared / write_shared / get / put / store.

        One path: evaluate operands, resolve the element (owner + flat
        offset, every bounds check) once, trace, then serve it here if
        it is homed here or send one request.  The opcodes differ only
        in read-vs-write and in how completion is observed: a blocking
        tag, a sync counter, or (``store``) nothing but the global
        outstanding-store count.

        Store-atomicity under TSO/PSO: a locally-homed write enters
        this processor's store buffer (and its own reads forward from
        it); a remote one is applied at its home on arrival.
        """
        sim = self.sim
        machine = sim.machine
        memory = sim.memory
        op = instr.op
        var = instr.var
        reads = op is Opcode.READ_SHARED or op is Opcode.GET
        blocking = op is Opcode.READ_SHARED or op is Opcode.WRITE_SHARED
        indices = self.indices_of(instr)
        value = None if reads else self.value(instr.src)
        owner, flat = memory.resolve(var, indices)
        event = None
        if sim.trace is not None:
            if reads:
                event = sim.trace.record_read_issue(
                    self.pid, (var, flat), uid=instr.uid)
            else:
                sim.trace.record_write(
                    self.pid, (var, flat), value, uid=instr.uid)
        dest = instr.dest.name if instr.dest is not None else None
        local_flat = (
            self._local_flat_fused(instr)
            if instr.local_array is not None else None
        )
        if owner == self.pid:
            weak = sim.weak
            if reads:
                value = memory.read_flat(var, flat)
                hit = (
                    weak.forward(self.pid, var, flat)
                    if weak is not None else None
                )
                if hit is not None:
                    value = hit.value
                if event is not None:
                    event.value = value
                    event.forwarded = hit is not None
                _land(frame, dest, instr.local_array, local_flat, value)
            elif weak is None:
                memory.write_flat(var, flat, memory.coerce(var, value))
            else:
                entry_id, delay = weak.enqueue(self.pid, var, flat, value)
                sim.schedule_drain(self.pid, entry_id, self.clock + delay)
            self.clock += machine.local_access
            frame.index += 1
            return True
        self.clock += machine.send_overhead
        if reads:
            msg = Message(
                MsgKind.GET_REQ, src=self.pid, dst=owner, var=var,
                flat=flat, dest_temp=dest, local_array=instr.local_array,
                local_flat=local_flat, event=event,
            )
        else:
            msg = Message(
                MsgKind.STORE_REQ if op is Opcode.STORE else MsgKind.PUT_REQ,
                src=self.pid, dst=owner, var=var, flat=flat,
                value=memory.coerce(var, value),
            )
        if blocking:
            msg.tag = sim.new_tag()
        elif op is Opcode.STORE:
            sim.outstanding_stores += 1
        else:
            counter = msg.counter = instr.counter
            self.counters[counter] = self.counters.get(counter, 0) + 1
            if reads:
                _land(frame, dest, instr.local_array, local_flat, PENDING)
        sim.send(msg, self.clock)
        if blocking:
            self._block(("reply", msg.tag), instr)
            return False
        frame.index += 1
        return True

    def _local_flat_fused(self, instr: Instr) -> int:
        """Flat offset into a fused get's local landing array."""
        array = self.frames[-1].function.local_arrays[instr.local_array]
        flat = 0
        for operand, extent in zip(instr.local_indices, array.dims):
            index = self.int_value(operand)
            if not 0 <= index < extent:
                raise RuntimeFault(
                    f"P{self.pid}: fused get target {instr.local_array} "
                    f"index {index} out of range [0, {extent})"
                )
            flat = flat * extent + index
        return flat

    def _sync_ctr(self, instr: Instr, frame: _Frame) -> bool:
        if self.counters.get(instr.counter, 0):
            self._block(("counter", instr.counter), instr)
            return False
        self.clock += self.sim.machine.cpu_op
        frame.index += 1
        return True

    def _store_sync(self, instr: Instr, frame: _Frame) -> bool:
        sim = self.sim
        if sim.outstanding_stores:
            self._block(("store_sync",), instr)
            sim.store_sync_waiters.append(self.pid)
            return False
        self.clock += sim.machine.cpu_op
        frame.index += 1
        return True

    # -- synchronization constructs -------------------------------------------

    def _sync(self, instr: Instr, frame: _Frame) -> bool:
        """post / wait / lock / unlock on a homed flag or lock.

        The operation itself is :meth:`Simulator.home_sync`, called
        directly when the object is homed here and by the home's
        message handler otherwise.  ``post`` and ``unlock`` are
        acknowledged (blocking tag); a ``wait`` or ``lock`` that cannot
        proceed parks until the home grants it.
        """
        sim = self.sim
        op = instr.op
        owner, flat = sim.memory.resolve(instr.var, self.indices_of(instr))
        key = (instr.var, flat)
        if sim.trace is not None:
            record = sim.trace.record_sync(
                self.pid, op.value, key, uid=instr.uid)
            if op is Opcode.LOCK or op is Opcode.UNLOCK:
                sim._pending_serial[self.pid] = record
        if owner == self.pid:
            if sim.home_sync(op, key, self.pid, self.clock):
                self.clock += sim.machine.local_access
                frame.index += 1
                return True
            self._block((op.value, key), instr)
            return False
        self.clock += sim.machine.send_overhead
        msg = Message(_SYNC_REQUEST[op], src=self.pid, dst=owner,
                      var=instr.var, flat=flat)
        if op is Opcode.POST or op is Opcode.UNLOCK:
            msg.tag = sim.new_tag()
            reason: Tuple = ("reply", msg.tag)
        else:
            reason = (op.value, key)
        sim.send(msg, self.clock)
        self._block(reason, instr)
        return False

    def _barrier(self, instr: Instr, frame: _Frame) -> bool:
        sim = self.sim
        if sim.trace is not None:
            sim.trace.record_sync(
                self.pid, "barrier", serial=self.barrier_no, uid=instr.uid,
            )
        self.barrier_no += 1
        self.clock += sim.machine.send_overhead
        sim.topology.local_arrive(self.pid, self.clock)
        self._block(("barrier",), instr)
        return False

    # -- call / return ----------------------------------------------------------

    def _call(self, instr: Instr, frame: _Frame) -> bool:
        callee = self.sim.module.functions[instr.callee]
        new_frame = self._make_frame(callee, instr.dest)
        for param, arg in zip(callee.params, instr.args):
            new_frame.regs[param.name] = self.value(arg)
        # Advance past the call first: the callee's ret resumes the
        # caller at the following instruction.
        frame.index += 1
        self.frames.append(new_frame)
        self.clock += self.sim.machine.cpu_op * 2
        return True

    def _ret(self, instr: Instr, frame: _Frame) -> bool:
        result = self.value(instr.src) if instr.src is not None else None
        dest = frame.result_dest
        self.frames.pop()
        self.clock += self.sim.machine.cpu_op
        if not self.frames:
            self.state = ProcState.DONE
            self.sim.proc_finished(self)
            return False
        if dest is not None:
            self.set_reg(dest, result)
        return True

    #: Every opcode with simulator-visible effects -> its handler
    #: ``(proc, instr, frame) -> bool``.  The decoder binds the entry
    #: into each slow step, so there is no per-step opcode dispatch.
    OPS: Dict[Opcode, Callable[["Processor", Instr, _Frame], bool]] = {
        Opcode.READ_SHARED: _access,
        Opcode.WRITE_SHARED: _access,
        Opcode.GET: _access,
        Opcode.PUT: _access,
        Opcode.STORE: _access,
        Opcode.SYNC_CTR: _sync_ctr,
        Opcode.STORE_SYNC: _store_sync,
        Opcode.POST: _sync,
        Opcode.WAIT: _sync,
        Opcode.LOCK: _sync,
        Opcode.UNLOCK: _sync,
        Opcode.BARRIER: _barrier,
        Opcode.CALL: _call,
        Opcode.RET: _ret,
    }

    # -- blocking/waking ---------------------------------------------------------

    def _block(self, reason: Tuple, instr: Instr) -> None:
        self.state = ProcState.BLOCKED
        self.block_reason = reason
        # The instruction completes when we are woken: the wake path
        # advances past it (sync_ctr & co. re-check on resume instead).
        if reason[0] in ("reply", "wait", "lock", "barrier"):
            self.frames[-1].index += 1

    def wake(self, time: int) -> None:
        if self.state is not ProcState.BLOCKED:
            raise RuntimeFault(f"P{self.pid}: waking a non-blocked processor")
        self.state = ProcState.READY
        self.block_reason = None
        self.sim.schedule_resume(self.pid, max(time, self.clock))


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
        entry: str = "main",
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
        self.entry = entry
        self.max_cycles = max_cycles
        self.memory = GlobalMemory(module, num_procs)
        self.fault_plan = fault_plan
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
        self.topology: BarrierTopology = build_topology(machine, self)
        self.trace: Optional[ExecutionTrace] = (
            ExecutionTrace(num_procs) if trace else None
        )
        self.outstanding_stores = 0
        self.store_sync_waiters: List[int] = []
        #: traced lock/unlock records awaiting their pairing serial, by
        #: pid (a processor has at most one such operation in flight)
        self._pending_serial: Dict[int, SyncRecord] = {}
        self._calendar = CalendarQueue()
        self._links = LinkChannels()
        # The only two entry points into the event core, bound per
        # instance: the hot path calls them directly, and the test-side
        # reference engine rebinds them to its flat heap.
        self._push: Callable[[int, tuple], None] = self._calendar.push
        self._deliver: Callable[[int, Message], None] = self._deliver_link
        self._decoded_cache: Dict[str, Dict[str, List[Step]]] = {}
        self.procs = [
            self.processor_class(pid, self) for pid in range(num_procs)
        ]
        self._tags = itertools.count(1)
        self._done_count = 0
        #: reliability-protocol state (only populated under a fault plan)
        self._send_seq: Dict[Tuple[int, int], int] = {}
        self._unacked: Dict[Tuple[int, int], Dict[int, _Retransmit]] = {}
        self._recv_expected: Dict[Tuple[int, int], int] = {}
        self._recv_buffer: Dict[Tuple[int, int], Dict[int, Message]] = {}
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

    def new_tag(self) -> int:
        return next(self._tags)

    def send(self, msg: Message, now: int) -> None:
        if self.fault_plan is None:
            self._deliver(self.network.send(msg, now), msg)
            return
        # Reliable path: wrap in a sequence-numbered envelope; the
        # receiver delivers per-link traffic in seq order, restoring
        # point-to-point FIFO above the lossy wire.
        link = (msg.src, msg.dst)
        seq = self._send_seq.get(link, 0)
        self._send_seq[link] = seq + 1
        msg.seq = seq
        record = _Retransmit(msg=msg)
        self._unacked.setdefault(link, {})[seq] = record
        self._transmit(record, now)

    # -- reliability protocol (fault plans only) ---------------------------

    def _transmit(self, record: _Retransmit, now: int) -> None:
        """One physical transmission attempt plus its timeout timer."""
        record.attempts += 1
        msg = record.msg
        arrivals = self.network.transmit(
            msg, now, retransmission=record.attempts > 1
        )
        for arrival in arrivals:
            self._push(arrival, ("xport", msg))
        timeout = self.machine.retransmit_timeout(
            record.attempts, self.fault_plan.spike_cycles
        )
        self._push(now + timeout, ("retx", ((msg.src, msg.dst), msg.seq)))

    def _handle_retx(self, now: int, link: Tuple[int, int],
                     seq: int) -> None:
        record = self._unacked.get(link, {}).get(seq)
        if record is None:
            return  # acked in the meantime; stale timer
        plan = self.fault_plan
        if record.attempts > plan.retry_cap:
            msg = record.msg
            raise NetworkFault(
                f"P{msg.src}: {msg.kind.value} to P{msg.dst} "
                f"undeliverable after {record.attempts} transmissions "
                f"(seq {seq}, retry cap {plan.retry_cap}); "
                + self.network.describe_link(link)
                + (
                    "; link currently partitioned"
                    if plan.partitioned(link[0], link[1], now) else ""
                ),
                undeliverable=msg,
                link=link,
                attempts=record.attempts,
                link_stats=self.network.link_stats.get(link),
            )
        self._transmit(record, now)

    def _handle_xport(self, now: int, msg: Message) -> None:
        """Transport arrival: deduplicate, deliver in seq order, ack."""
        link = (msg.src, msg.dst)
        expected = self._recv_expected.get(link, 0)
        buffer = self._recv_buffer.setdefault(link, {})
        if msg.seq < expected or msg.seq in buffer:
            self.network.stats.duplicates_suppressed += 1
        else:
            buffer[msg.seq] = msg
            while expected in buffer:
                ready = buffer.pop(expected)
                expected += 1
                self._recv_expected[link] = expected
                self._handle_message(now, ready)
        # Always ack — the sender may be retransmitting because our
        # previous ack was lost.  ``tag`` echoes the received seq;
        # ``counter`` carries the cumulative in-order floor, so any
        # later ack on the link also clears an envelope whose own acks
        # all died (without it, one envelope fails once ~11 independent
        # coin flips go wrong — far too often across a whole campaign).
        ack = Message(MsgKind.NET_ACK, src=msg.dst, dst=msg.src,
                      tag=msg.seq,
                      counter=self._recv_expected.get(link, 0) - 1)
        for arrival in self.network.transmit(ack, now):
            self._push(arrival, ("xack", ack))

    def _handle_xack(self, msg: Message) -> None:
        link = (msg.dst, msg.src)  # ack flows opposite the data
        records = self._unacked.get(link, {})
        record = records.pop(msg.tag, None)
        if record is not None:
            self.network.stats.record_retries(record.attempts)
        # Cumulative part: everything at or below the receiver's
        # in-order floor has been delivered, whether or not its own
        # ack survived.
        floor = msg.counter
        if floor is not None:
            for seq in [s for s in records if s <= floor]:
                self.network.stats.record_retries(
                    records.pop(seq).attempts
                )

    def schedule_resume(self, pid: int, time: int) -> None:
        if self.fault_plan is not None:
            time = self.fault_plan.stalled_until(pid, time)
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

    def proc_finished(self, proc: Processor) -> None:
        self._done_count += 1

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
            if not self.locks.acquire(key, requester):
                return False
            self._stamp_serial(requester, key)
            return True
        next_holder = self.locks.release(key, requester)
        self._stamp_serial(requester, key)
        if next_holder is not None:
            # The handoff follows the release that just happened.
            self._stamp_serial(next_holder, key)
            self._grant(MsgKind.LOCK_GRANT, next_holder, key, now)
        return True

    def _stamp_serial(self, pid: int, key: Tuple[str, int]) -> None:
        record = self._pending_serial.pop(pid, None)
        if record is not None:
            record.serial = self.locks.release_serial(key)

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
                tag=msg.tag,
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
                        counter=msg.counter, tag=msg.tag),
                arrival + machine.remote_handle,
            )

    def _on_sync_req(self, arrival: int, msg: Message) -> None:
        """POST/WAIT/LOCK/UNLOCK_REQ: run the operation at its home."""
        op = _SYNC_OPCODE[msg.kind]
        served = arrival + self.machine.remote_handle
        proceeds = self.home_sync(op, (msg.var, msg.flat), msg.src, served)
        self.procs[msg.dst].stolen += self.machine.remote_handle
        if proceeds:
            self.send(
                Message(_SYNC_REPLY[op], src=msg.dst, dst=msg.src,
                        tag=msg.tag),
                served,
            )

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
        if (
            proc.state is ProcState.BLOCKED
            and proc.block_reason == ("counter", counter)
            and proc.counters[counter] == 0
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
        """A human-readable account of why ``proc`` is parked."""
        reason = proc.block_reason
        if reason is None:
            return "nothing (ready)"
        kind = reason[0]
        if kind == "counter":
            outstanding = proc.counters.get(reason[1], 0)
            return (
                f"sync_ctr #{reason[1]} "
                f"({outstanding} completion(s) outstanding)"
            )
        if kind == "store_sync":
            return (
                f"all_store_sync ({self.outstanding_stores} one-way "
                "store(s) undrained)"
            )
        if kind == "reply":
            return f"a reply with tag {reason[1]}"
        if kind == "wait":
            var, flat = reason[1]
            return f"wait {var}[{flat}]"
        if kind == "lock":
            var, flat = reason[1]
            holder = self.locks.holder(reason[1])
            held = f" held by P{holder}" if holder is not None else ""
            return f"lock {var}[{flat}]{held}"
        if kind == "barrier":
            return self.topology.describe_block()
        return repr(reason)

    def deadlock_report(self) -> str:
        """Multi-line forensics: processors, sync objects, network."""
        lines = ["processors:"]
        for proc in self.procs:
            if proc.state is ProcState.DONE:
                lines.append(
                    f"  P{proc.pid}: done "
                    f"(clock {proc.clock}, {proc.instructions} instrs)"
                )
                continue
            if proc.frames:
                frame = proc.frames[-1]
                pc = f"{frame.function.name}:{frame.block}+{frame.index}"
            else:
                pc = "<no frame>"
            lines.append(
                f"  P{proc.pid}: {proc.state.value} at {pc} on "
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
            f"  in-flight message copies: {self.network.in_flight}"
        )
        lines.append(
            f"  outstanding one-way stores: {self.outstanding_stores}"
        )
        unacked = [
            (link, seq, record)
            for link, records in sorted(self._unacked.items())
            for seq, record in sorted(records.items())
        ]
        if unacked:
            for link, seq, record in unacked:
                lines.append(
                    f"  unacked envelope {link[0]}->{link[1]} seq {seq}"
                    f" ({record.msg.kind.value}, "
                    f"{record.attempts} transmission(s))"
                )
        elif self.fault_plan is not None:
            lines.append("  unacked envelopes: none")
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
        network = self.network
        weak = self.weak
        while calendar.times:
            time, batch = calendar.pop_batch()
            i = 0
            while i < len(batch):
                payload = batch[i]
                i += 1
                tag = payload[0]
                if tag == "link":
                    network.delivered()
                    self._handle_message(time, payload[1].popleft())
                elif tag == "resume":
                    proc = procs[payload[1]]
                    if proc.state is not ProcState.DONE:
                        proc.advance(time)
                elif tag == "drain":
                    weak.drain(payload[1], payload[2])
                elif tag == "xport":
                    network.delivered()
                    self._handle_xport(time, payload[1])
                elif tag == "xack":
                    network.delivered()
                    self._handle_xack(payload[1])
                else:  # "retx"
                    self._handle_retx(time, *payload[1])
            calendar.retire(time)
        return self._finish()

    def _finish(self) -> SimulationResult:
        if self._done_count != self.num_procs:
            blocked = [
                f"P{p.pid} blocked on {self._describe_block_reason(p)}"
                for p in self.procs
                if p.state is ProcState.BLOCKED
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
