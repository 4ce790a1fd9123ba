"""The seed execution engine, kept as a differential oracle.

``src/repro/runtime`` holds one interpreter (decoded step closures,
:mod:`repro.runtime.decode`) and one event core (the calendar queue,
:mod:`repro.runtime.events`).  This module carries what they replaced,
unchanged in behaviour, so ``test_reference_parity.py`` can demand
bit-identical cycles, stalls, instruction/message counts, snapshots
and fault texts from the two:

* :class:`ReferenceProcessor` executes one IR instruction per loop
  iteration through an opcode dispatch; it owns the nine purely local
  opcodes the decoder compiles inline and defers every opcode with
  simulator-visible effects to the production ``Processor._execute``.
* :class:`ReferenceSimulator` keeps every pending event in one flat
  ``heapq`` of ``(time, seq, payload)`` and pops one event at a time.

It plugs into the production classes through two seams that cost the
hot path nothing: the ``Simulator.processor_class`` attribute and the
instance-bound ``_push``/``_deliver`` callables.
"""

import heapq
import itertools

from repro.errors import RuntimeFault
from repro.ir.instructions import Opcode, UnOpKind
from repro.runtime.decode import _binop, _intrinsic
from repro.runtime.simulator import Processor, ProcState, Simulator


class ReferenceProcessor(Processor):
    """Per-instruction interpreter loop + local-opcode dispatch."""

    def advance(self, now):
        if now > self.clock:
            self.wait_cycles += now - self.clock
            self.clock = now
        self.clock += self.stolen
        self.stolen = 0
        self.state = ProcState.READY
        self.block_reason = None
        sim = self.sim
        while True:
            if self.clock > sim.max_cycles:
                raise RuntimeFault(
                    f"P{self.pid}: exceeded cycle budget {sim.max_cycles} "
                    "(runaway loop?)"
                )
            frame = self.frames[-1]
            instr = frame.function.block(frame.block).instrs[frame.index]
            self.instructions += 1
            if not self._execute(instr, frame):
                return  # blocked or done

    def _execute(self, instr, frame):
        machine = self.sim.machine
        op = instr.op
        if op is Opcode.CONST:
            self.set_reg(instr.dest, instr.value)
            self.clock += machine.cpu_op
        elif op is Opcode.MOVE:
            self.set_reg(instr.dest, self.value(instr.src))
            self.clock += machine.cpu_op
        elif op is Opcode.BINOP:
            self.set_reg(
                instr.dest,
                _binop(instr.binop, self.value(instr.lhs),
                       self.value(instr.rhs)),
            )
            self.clock += machine.cpu_op
        elif op is Opcode.UNOP:
            value = self.value(instr.src)
            if instr.unop is UnOpKind.NEG:
                self.set_reg(instr.dest, -value)
            else:
                self.set_reg(instr.dest, 0 if value else 1)
            self.clock += machine.cpu_op
        elif op is Opcode.INTRINSIC:
            args = [self.value(a) for a in instr.args]
            self.set_reg(instr.dest, _intrinsic(instr.intrinsic, args))
            self.clock += machine.cpu_op * 4
        elif op is Opcode.LOAD_LOCAL:
            array = frame.arrays[instr.var]
            self.set_reg(instr.dest, array[self._local_flat(frame, instr)])
            self.clock += machine.local_mem
        elif op is Opcode.STORE_LOCAL:
            array = frame.arrays[instr.var]
            flat = self._local_flat(frame, instr)
            array[flat] = self.value(instr.src)
            self.clock += machine.local_mem
        elif op is Opcode.JUMP:
            frame.block = instr.target
            frame.index = 0
            self.clock += machine.cpu_op
            return True
        elif op is Opcode.BRANCH:
            taken = self.value(instr.cond) != 0
            frame.block = instr.true_target if taken else instr.false_target
            frame.index = 0
            self.clock += machine.cpu_op
            return True
        else:
            return super()._execute(instr, frame)
        frame.index += 1
        return True

    def _local_flat(self, frame, instr):
        array = frame.function.local_arrays[instr.var]
        flat = 0
        for operand, extent in zip(instr.indices, array.dims):
            index = self.int_value(operand)
            if not 0 <= index < extent:
                raise RuntimeFault(
                    f"P{self.pid}: local array {instr.var} index {index} "
                    f"out of range [0, {extent})"
                )
            flat = flat * extent + index
        return flat


class ReferenceSimulator(Simulator):
    """Flat-heap event loop: one ``(time, seq, payload)`` per pop."""

    processor_class = ReferenceProcessor

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._events = []
        self._seq = itertools.count()
        self._push = self._push_heap
        self._deliver = self._deliver_heap

    def decoded(self, function):
        return {}  # the reference processor never runs decoded steps

    def _push_heap(self, time, payload):
        heapq.heappush(self._events, (time, next(self._seq), payload))

    def _deliver_heap(self, arrival, msg):
        self._push(arrival, ("deliver", msg))

    def run(self):
        for pid in range(self.num_procs):
            self.schedule_resume(pid, 0)
        while self._events:
            time, _seq, payload = heapq.heappop(self._events)
            tag = payload[0]
            if tag == "resume":
                proc = self.procs[payload[1]]
                if proc.state is ProcState.DONE:
                    continue
                proc.advance(time)
            elif tag == "deliver":
                self.network.delivered()
                self._handle_message(time, payload[1])
            elif tag == "xport":
                self.network.delivered()
                self._handle_xport(time, payload[1])
            elif tag == "xack":
                self.network.delivered()
                self._handle_xack(payload[1])
            elif tag == "drain":
                self.weak.drain(payload[1], payload[2])
            else:  # "retx"
                self._handle_retx(time, *payload[1])
        return self._finish()


def observe(simulator_class, module, procs, machine, **kwargs):
    """Everything one run exposes, or its fault text — the value the
    parity tests compare between the two engines."""
    try:
        result = simulator_class(module, procs, machine, **kwargs).run()
    except RuntimeFault as fault:
        return {"fault": f"{type(fault).__name__}: {fault}"}
    return {
        "cycles": result.cycles,
        "per_proc_cycles": result.per_proc_cycles,
        "per_proc_wait": result.per_proc_wait,
        "instructions": result.instructions,
        "total_messages": result.total_messages,
        "retransmits": result.retransmits,
        "weak_stats": result.weak_stats,
        "snapshot": result.snapshot(),
        "trace": result.trace and (
            result.trace.per_proc, result.trace.sync_per_proc
        ),
    }


def assert_parity(module, procs, machine, **kwargs):
    """Runs both engines on identical inputs and demands equal
    observations; returns the (shared) observation."""
    production = observe(Simulator, module, procs, machine, **kwargs)
    reference = observe(ReferenceSimulator, module, procs, machine, **kwargs)
    for key in production.keys() | reference.keys():
        assert production.get(key) == reference.get(key), key
    return production
