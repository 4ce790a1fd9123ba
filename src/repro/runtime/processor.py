"""One simulated processor: registers, frames, clock, and one handler
per opcode with simulator-visible effects.

``Processor.advance`` runs the steps :mod:`repro.runtime.decode` built
until the processor blocks or finishes.  The decoder binds each
``Processor.OPS`` handler into its step, so nothing dispatches on
opcodes at run time: ``_access`` serves the five shared-access opcodes,
``_sync`` post/wait/lock/unlock.  The requester resolves the element —
owner, flat offset, every bounds check — and a request carries the flat
offset; the :class:`~repro.runtime.simulator.Simulator` applies it at
the home.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import RuntimeFault
from repro.ir.cfg import Function
from repro.ir.instructions import Const, Instr, Opcode, Operand, Temp
from repro.runtime.decode import PENDING, Step, _Pending
from repro.runtime.network import Message, MsgKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.simulator import Simulator

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

#: Blocking opcodes that re-execute on wake instead of resuming past
#: themselves: they re-check their condition and fall through.
_RECHECK_OPCODES = frozenset({Opcode.SYNC_CTR, Opcode.STORE_SYNC})

#: Request kind of each homed synchronization opcode.
_SYNC_REQUEST = {
    Opcode.POST: MsgKind.POST_REQ,
    Opcode.WAIT: MsgKind.WAIT_REQ,
    Opcode.LOCK: MsgKind.LOCK_REQ,
    Opcode.UNLOCK: MsgKind.UNLOCK_REQ,
}


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


class Processor:
    """One virtual processor's architectural state."""

    def __init__(self, pid: int, sim: "Simulator"):
        self.pid = pid
        self.sim = sim
        self.clock = 0
        self.stolen = 0
        #: cycles spent stalled on remote completions / synchronization
        self.wait_cycles = 0
        #: the instruction this processor is parked at, if any: the one
        #: record of why it waits (a finished processor has no frames)
        self.blocked_on: Optional[Instr] = None
        self.counters: Dict[int, int] = {}
        self.instructions = 0
        self.frames: List[_Frame] = [self._make_frame(sim.module.main, None)]

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
        self.clock += self.stolen
        self.stolen = 0
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
        reply, a sync counter, or (``store``) nothing but the global
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
        if op is Opcode.STORE:
            sim.outstanding_stores += 1
        elif not blocking:
            counter = msg.counter = instr.counter
            self.counters[counter] = self.counters.get(counter, 0) + 1
            if reads:
                _land(frame, dest, instr.local_array, local_flat, PENDING)
        sim.send(msg, self.clock)
        if blocking:
            self._block(instr)
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
            self._block(instr)
            return False
        self.clock += self.sim.machine.cpu_op
        frame.index += 1
        return True

    def _store_sync(self, instr: Instr, frame: _Frame) -> bool:
        sim = self.sim
        if sim.outstanding_stores:
            self._block(instr)
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
        message handler otherwise.  A remote ``post`` or ``unlock``
        parks until its acknowledgement; a ``wait`` or ``lock`` that
        cannot proceed parks until the home grants it.
        """
        sim = self.sim
        op = instr.op
        owner, flat = sim.memory.resolve(instr.var, self.indices_of(instr))
        if owner == self.pid:
            if sim.home_sync(op, (instr.var, flat), self.pid, self.clock):
                self.clock += sim.machine.local_access
                frame.index += 1
                return True
            self._block(instr)
            return False
        self.clock += sim.machine.send_overhead
        sim.send(Message(_SYNC_REQUEST[op], src=self.pid, dst=owner,
                         var=instr.var, flat=flat), self.clock)
        self._block(instr)
        return False

    def _barrier(self, instr: Instr, frame: _Frame) -> bool:
        sim = self.sim
        self.clock += sim.machine.send_overhead
        sim.topology.local_arrive(self.pid, self.clock)
        self._block(instr)
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

    def _block(self, instr: Instr) -> None:
        self.blocked_on = instr
        # The instruction completes when we are woken, so resume past
        # it — except sync_ctr and all_store_sync, which re-check.
        if instr.op not in _RECHECK_OPCODES:
            self.frames[-1].index += 1

    def wake(self, time: int) -> None:
        """Releases the processor at ``time``.  A parked processor's
        clock stands still (handlers charge ``stolen``), so the gap up
        to ``time`` is stall, charged here while ``blocked_on`` still
        names its cause."""
        if self.blocked_on is None:
            raise RuntimeFault(f"P{self.pid}: waking a non-blocked processor")
        if time > self.clock:
            self.wait_cycles += time - self.clock
            self.clock = time
        self.blocked_on = None
        self.sim.schedule_resume(self.pid, self.clock)

