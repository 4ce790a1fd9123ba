"""Threaded-code decoder: the simulator's only interpreter.

Profiling the seed runtime at 256 processors showed the event heap was
*not* the bottleneck: ~80% of wall time sat in a per-instruction opcode
dispatch and its per-operand ``value()`` calls.  The simulator
therefore decodes each function once into **step closures** — one
callable per entry point — and ``Processor.advance`` is
``r = steps[i](proc, frame, regs)`` with the closure returning the
next index (or ``-1`` = refetch frame/block, ``-2`` = blocked/done).

Two tiers of steps:

* **Fused runs.**  Straight-line sequences are compiled to one
  generated-source function each: operand loads become direct
  ``regs[...]`` accesses, temps written earlier in the run are cached
  in Python locals, the cycle cost of the whole run is added with a
  single ``proc.clock +=``.  The nine *local* opcodes (const/move/
  binop/unop/intrinsic/local array traffic, a trailing jump/branch)
  always fuse.  In untraced SC runs — where the delay-fence set is
  inert and nothing records accesses — so do the five shared-access
  opcodes (``read_shared``/``write_shared`` and the split-phase
  ``get``/``put``/``store``) for an element homed on the issuer, with
  the owner test inline and a bail-out to ``Processor._access`` for a
  remote home, and a ``sync_ctr`` whose counter is already zero.  That
  is the common case by construction in owner-computes kernels, and at
  O1 and up it is the code the paper is about.

* **Slow steps.**  Every other opcode with simulator-visible effects
  (post/wait/lock/unlock, barrier, store_sync, call/ret), and every
  shared access or ``sync_ctr`` of a traced or TSO/PSO run, is one call
  of its ``Processor.OPS`` handler, which owns message formats,
  blocking behavior and trace recording; the decoder binds it into the
  step, so there is no opcode dispatch.  Under TSO/PSO the step binds
  ``Processor._execute`` instead, which drains the store buffer in
  front of every fence target and then calls the same handler.

Decode cost is linear and mostly memoized.  Every instruction is
compiled into exactly one step: a run ends after a shared access (a
blocked remote access resumes at the next index, and a remote
split-phase bail returns there) and a ``sync_ctr`` always starts one
(it re-executes on wake).  Most of decode is ``compile()`` of step
source, and step texts repeat heavily within and across programs, so
one bounded memo (:func:`_step_code`) maps text to code object.  That
is sound because a step's text names every non-literal constant ``cN``
and resolves it as a global: the code object depends on nothing but the
text, and each run executes it into its own namespace.

Parity contract: the seed per-instruction interpreter and flat-heap
event loop live on as a test-side oracle
(``tests/runtime/reference_engine.py``), and
``tests/runtime/test_reference_parity.py`` pins per-processor clocks,
wait cycles, instruction and message counts, snapshots and fault texts
against it.  The subtleties that matter:

* reads of a temp that may hold a pending split-phase value
  (the destination of a ``get`` without a landing array, or a load
  from a local array some ``get`` lands in) are guarded exactly like
  ``value()``;
* an undefined temp raises the ``use of undefined temp`` fault (the
  generated code catches ``KeyError`` from ``regs``);
* local-array bounds faults carry the oracle's message verbatim;
* the cycle-budget check runs per step, not per instruction — a
  runaway loop still faults (every loop crosses a block boundary,
  i.e. a step), merely a few cycles later.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Dict, List, Set

from repro.errors import RuntimeFault
from repro.ir.cfg import Function
from repro.ir.instructions import BinOpKind, Const, Instr, Opcode, UnOpKind
from repro.lang.types import Distribution, ScalarKind

Value = object


class _Pending:
    """Sentinel stored in a get's destination until the reply lands."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<pending>"


PENDING = _Pending()


def _binop(kind: BinOpKind, left, right):
    if kind is BinOpKind.ADD:
        return left + right
    if kind is BinOpKind.SUB:
        return left - right
    if kind is BinOpKind.MUL:
        return left * right
    if kind is BinOpKind.DIV:
        if isinstance(left, int) and isinstance(right, int):
            if right == 0:
                raise RuntimeFault("integer division by zero")
            return int(math.trunc(left / right))  # C-style truncation
        if right == 0:
            raise RuntimeFault("float division by zero")
        return left / right
    if kind is BinOpKind.MOD:
        if right == 0:
            raise RuntimeFault("modulo by zero")
        left_i, right_i = int(left), int(right)
        return left_i - int(math.trunc(left_i / right_i)) * right_i
    if kind is BinOpKind.EQ:
        return int(left == right)
    if kind is BinOpKind.NE:
        return int(left != right)
    if kind is BinOpKind.LT:
        return int(left < right)
    if kind is BinOpKind.LE:
        return int(left <= right)
    if kind is BinOpKind.GT:
        return int(left > right)
    if kind is BinOpKind.GE:
        return int(left >= right)
    if kind is BinOpKind.AND:
        return int(bool(left) and bool(right))
    if kind is BinOpKind.OR:
        return int(bool(left) or bool(right))
    raise RuntimeFault(f"unknown binop {kind}")  # pragma: no cover


def _intrinsic(name: str, args: List):
    if name == "min":
        return min(args)
    if name == "max":
        return max(args)
    if name == "abs":
        return abs(args[0])
    if name == "sqrt":
        return math.sqrt(args[0])
    if name == "floor":
        return int(math.floor(args[0]))
    if name == "exp":
        return math.exp(args[0])
    if name == "sin":
        return math.sin(args[0])
    if name == "cos":
        return math.cos(args[0])
    raise RuntimeFault(f"unknown intrinsic {name}")  # pragma: no cover


#: Opcodes the fuser may compile inline: purely local effects.
FAST_OPS = frozenset(
    {
        Opcode.CONST,
        Opcode.MOVE,
        Opcode.BINOP,
        Opcode.UNOP,
        Opcode.INTRINSIC,
        Opcode.LOAD_LOCAL,
        Opcode.STORE_LOCAL,
        Opcode.JUMP,
        Opcode.BRANCH,
    }
)

#: Shared accesses (everything ``Processor._access`` serves) the fuser
#: may specialize when the run is untraced and sequentially consistent:
#: the owner test compiles inline, the local-home case reads/writes
#: backing storage directly, and the remote case bails to ``_access``.
SHARED_OPS = frozenset(
    {
        Opcode.READ_SHARED,
        Opcode.WRITE_SHARED,
        Opcode.GET,
        Opcode.PUT,
        Opcode.STORE,
    }
)

#: Binop kinds whose semantics are type-independent enough to inline.
_INLINE_BINOPS: Dict[BinOpKind, str] = {
    BinOpKind.ADD: "({l} + {r})",
    BinOpKind.SUB: "({l} - {r})",
    BinOpKind.MUL: "({l} * {r})",
    BinOpKind.EQ: "int({l} == {r})",
    BinOpKind.NE: "int({l} != {r})",
    BinOpKind.LT: "int({l} < {r})",
    BinOpKind.LE: "int({l} <= {r})",
    BinOpKind.GT: "int({l} > {r})",
    BinOpKind.GE: "int({l} >= {r})",
    BinOpKind.AND: "int(bool({l}) and bool({r}))",
    BinOpKind.OR: "int(bool({l}) or bool({r}))",
}

#: Step-closure signature: (processor, frame, regs) -> next index,
#: -1 to refetch frame/block state, -2 when blocked or done.
Step = Callable[[object, object, Dict[str, Value]], int]


def _pending_temps(function: Function) -> Set[str]:
    """Temp names that may transiently hold the PENDING sentinel.

    Exactly two producers exist: a non-fused ``get``'s destination
    temp, and a ``load_local`` from an array some fused ``get`` uses as
    its landing pad (the load copies the sentinel without faulting,
    just like the seed interpreter).  Every other write goes through a
    checked read first, so nothing propagates further.
    """
    pending_arrays = set()
    for block in function.blocks:
        for ins in block.instrs:
            if ins.op is Opcode.GET and ins.local_array is not None:
                pending_arrays.add(ins.local_array)
    pending: Set[str] = set()
    for block in function.blocks:
        for ins in block.instrs:
            if (
                ins.op is Opcode.GET
                and ins.local_array is None
                and ins.dest is not None
            ):
                pending.add(ins.dest.name)
            elif (
                ins.op is Opcode.LOAD_LOCAL
                and ins.var in pending_arrays
            ):
                pending.add(ins.dest.name)
    return pending


def _unreachable(proc, frame, regs) -> int:  # pragma: no cover - guard
    raise RuntimeFault(
        f"P{proc.pid}: decoder entered the middle of a fused run at "
        f"{frame.block}+{frame.index}"
    )


class _RunCompiler:
    """Generates one fused-run step function as Python source."""

    def __init__(self, function: Function, machine, pending: Set[str], sim):
        self.function = function
        self.machine = machine
        self.pending = pending
        self.sim = sim
        self.lines: List[str] = []
        self.locals = itertools.count()
        self.local_map: Dict[str, str] = {}
        self.array_map: Dict[str, str] = {}
        self.env: Dict[str, object] = {
            "RuntimeFault": RuntimeFault,
            "_Pending": _Pending,
            "_binop": _binop,
            "_intrinsic": _intrinsic,
        }
        self.cost = 0
        self.count = 0
        self.tail: List[str] = []
        self.result = "-1"

    def fresh(self) -> str:
        return f"v{next(self.locals)}"

    def emit(self, line: str) -> None:
        self.lines.append("        " + line)

    def const(self, value) -> str:
        """Binds a non-literal constant into the exec namespace."""
        name = f"c{next(self.locals)}"
        self.env[name] = value
        return name

    # -- operand access ----------------------------------------------------

    def read(self, operand) -> str:
        if isinstance(operand, Const):
            return repr(operand.value)
        name = operand.name
        cached = self.local_map.get(name)
        if cached is not None:
            return cached
        if name in self.pending:
            var = self.fresh()
            self.emit(f"{var} = regs[{name!r}]")
            self.emit(f"if {var}.__class__ is _Pending:")
            self.emit(
                f'    raise RuntimeFault(f"P{{proc.pid}}: read of '
                f"%{name} before its get completed (missing sync_ctr "
                '— compiler bug)")'
            )
            self.local_map[name] = var
            return var
        return f"regs[{name!r}]"

    def write(self, dest, expr: str) -> None:
        var = self.fresh()
        self.emit(f"{var} = {expr}")
        self.emit(f"regs[{dest.name!r}] = {var}")
        self.local_map[dest.name] = var

    def array(self, var: str) -> str:
        cached = self.array_map.get(var)
        if cached is None:
            cached = self.fresh()
            self.emit(f"{cached} = frame.arrays[{var!r}]")
            self.array_map[var] = cached
        return cached

    def flat_expr(self, name: str, indices, what: str = "local array") -> str:
        """Bounds-checked row-major offset into private array ``name``."""
        dims = self.function.local_arrays[name].dims
        flat = None
        for operand, extent in zip(indices, dims):
            if isinstance(operand, Const):
                index = int(operand.value)
                if 0 <= index < extent:
                    term = str(index)
                else:
                    # Out of range statically: fault when executed.
                    self.emit(
                        f'raise RuntimeFault(f"P{{proc.pid}}: {what} '
                        f"{name} index {index} out of range "
                        f'[0, {extent})")'
                    )
                    term = "0"  # unreachable
            else:
                iv = self.fresh()
                self.emit(f"{iv} = int({self.read(operand)})")
                self.emit(f"if not 0 <= {iv} < {extent}:")
                self.emit(
                    f'    raise RuntimeFault(f"P{{proc.pid}}: {what} '
                    f"{name} index {{{iv}}} out of range "
                    f'[0, {extent})")'
                )
                term = iv
            flat = term if flat is None else f"({flat} * {extent} + {term})"
        return flat if flat is not None else "0"

    # -- per-opcode translation -------------------------------------------

    def add(self, ins: Instr) -> None:
        machine = self.machine
        op = ins.op
        self.count += 1
        if op is Opcode.CONST:
            self.write(ins.dest, repr(ins.value))
            self.cost += machine.cpu_op
        elif op is Opcode.MOVE:
            self.write(ins.dest, self.read(ins.src))
            self.cost += machine.cpu_op
        elif op is Opcode.BINOP:
            template = _INLINE_BINOPS.get(ins.binop)
            left, right = self.read(ins.lhs), self.read(ins.rhs)
            if template is not None:
                expr = template.format(l=left, r=right)
            else:  # DIV/MOD: runtime-typed, use the shared helper
                kind = self.const(ins.binop)
                expr = f"_binop({kind}, {left}, {right})"
            self.write(ins.dest, expr)
            self.cost += machine.cpu_op
        elif op is Opcode.UNOP:
            value = self.read(ins.src)
            if ins.unop is UnOpKind.NEG:
                expr = f"(-{value})"
            else:
                expr = f"(0 if {value} else 1)"
            self.write(ins.dest, expr)
            self.cost += machine.cpu_op
        elif op is Opcode.INTRINSIC:
            args = ", ".join(self.read(a) for a in ins.args)
            self.write(ins.dest, f"_intrinsic({ins.intrinsic!r}, [{args}])")
            self.cost += machine.cpu_op * 4
        elif op is Opcode.LOAD_LOCAL:
            array = self.array(ins.var)
            flat = self.flat_expr(ins.var, ins.indices)
            self.write(ins.dest, f"{array}[{flat}]")
            self.cost += machine.local_mem
        elif op is Opcode.STORE_LOCAL:
            array = self.array(ins.var)
            flat = self.flat_expr(ins.var, ins.indices)
            self.emit(f"{array}[{flat}] = {self.read(ins.src)}")
            self.cost += machine.local_mem
        elif op is Opcode.JUMP:
            self.emit(f"frame.block = {ins.target!r}")
            self.cost += machine.cpu_op
            self.tail = ["    frame.index = 0"]
            self.result = "-1"
        elif op is Opcode.BRANCH:
            cond = self.read(ins.cond)
            self.emit(f"if {cond} != 0:")
            self.emit(f"    frame.block = {ins.true_target!r}")
            self.emit("else:")
            self.emit(f"    frame.block = {ins.false_target!r}")
            self.cost += machine.cpu_op
            self.tail = ["    frame.index = 0"]
            self.result = "-1"
        else:  # pragma: no cover - the fuser only feeds FAST_OPS
            raise RuntimeFault(f"cannot fuse {ins}")

    def bail(self, ins: Instr, index: int) -> None:
        """Body of an ``if``: settles the run's partial cost and hands
        ``ins`` to its ``OPS`` handler, which blocks or proceeds."""
        handler = self.const(self.sim.processor_class.OPS[ins.op])
        if self.cost:
            self.emit(f"    proc.clock += {self.cost}")
        self.emit(f"    proc.instructions += {self.count + 1}")
        self.emit(f"    frame.index = {index}")
        self.emit(f"    if {handler}(proc, {self.const(ins)}, frame):")
        self.emit(f"        return {index + 1}")
        self.emit("    return -2")

    def add_sync_ctr(self, ins: Instr, index: int) -> None:
        """A ``sync_ctr`` falls through when its counter is zero; else
        ``_sync_ctr`` blocks and the step re-executes (and is counted
        again, like the oracle's) on wake."""
        self.emit(f"if proc.counters.get({ins.counter!r}, 0):")
        self.bail(ins, index)
        self.cost += self.machine.cpu_op
        self.count += 1

    def add_shared(self, ins: Instr, index: int) -> None:
        """Inlines a shared access (any of :data:`SHARED_OPS`).

        Replicates ``Processor._access`` for the local-home case —
        same fault messages, same evaluation order (all indices, then
        the written value, then the leading-bounds/owner check, then
        trailing bounds, then a ``get``'s landing indices) and the same
        ``local_access`` charge; a local-home split-phase access
        completes at once, so no counter moves.  A remote owner bails
        to ``_access`` itself after settling the run's partial cost,
        and the blocking or split-phase protocol takes over unchanged.
        """
        sim = self.sim
        var = sim.memory.var(ins.var)
        num_procs = sim.num_procs
        name = ins.var
        reads = ins.op is Opcode.READ_SHARED or ins.op is Opcode.GET
        # 1. Evaluate every index left to right (undefined/pending
        #    faults fire here, before any bounds check — indices_of).
        idx_terms: List[str] = []
        for operand in ins.indices:
            if isinstance(operand, Const):
                idx_terms.append(str(int(operand.value)))
            else:
                iv = self.fresh()
                self.emit(f"{iv} = int({self.read(operand)})")
                idx_terms.append(iv)
        # 2. For writes, materialize the value next (``_access``
        #    evaluates it before the owner lookup can fault).
        val = None
        if not reads:
            val = self.fresh()
            self.emit(f"{val} = {self.read(ins.src)}")
        # 3. Leading bounds + owner (messages from ``GlobalMemory``).
        if var.dims:
            lead = idx_terms[0]
            extent = var.dims[0]
            self.emit(f"if not 0 <= {lead} < {extent}:")
            self.emit(
                f'    raise RuntimeFault(f"{name}: leading index '
                f'{{{lead}}} out of range [0, {extent})")'
            )
            if var.distribution is Distribution.CYCLIC:
                owner = f"({lead} % {num_procs})"
            else:
                block = -(-extent // num_procs)
                if block * num_procs == extent:
                    # Even division: the min() clamp can never fire
                    # (lead < extent implies lead // block < procs).
                    owner = f"({lead} // {block})"
                else:
                    owner = f"min({lead} // {block}, {num_procs - 1})"
        else:
            owner = "0"
        # 4. Remote home: funnel this instruction through ``_access``
        #    (it re-checks everything, then parks the processor until
        #    the reply or issues the split-phase request and goes on).
        self.emit(f"if {owner} != proc.pid:")
        self.bail(ins, index)
        # 5. Local home: trailing bounds checks, then direct storage
        #    access (the leading dimension was checked above).
        flat = idx_terms[0] if var.dims else "0"
        for term, extent in zip(idx_terms[1:], var.dims[1:]):
            self.emit(f"if not 0 <= {term} < {extent}:")
            self.emit(
                f'    raise RuntimeFault(f"{name}: index {{{term}}} '
                f'out of range [0, {extent})")'
            )
            flat = f"({flat} * {extent} + {term})"
        storage = self.const(sim.memory._storage[name])
        if ins.local_array is not None:  # a get fused with its store
            land = self.flat_expr(
                ins.local_array, ins.local_indices, "fused get target")
            array = self.array(ins.local_array)
            self.emit(f"{array}[{land}] = {storage}[{flat}]")
        elif reads:
            self.write(ins.dest, f"{storage}[{flat}]")
        elif var.kind is ScalarKind.INT:
            self.emit(f"{storage}[{flat}] = int({val})")
        else:
            self.emit(f"{storage}[{flat}] = {val}")
        self.cost += self.machine.local_access
        self.count += 1

    def compile(self, next_index: int) -> Step:
        if not self.tail:
            self.result = str(next_index)
        body = self.lines or ["        pass"]
        source = "\n".join(
            [
                "def _step(proc, frame, regs):",
                "    try:",
                *body,
                "    except KeyError as exc:",
                '        raise RuntimeFault(f"P{proc.pid}: use of '
                'undefined temp %{exc.args[0]}") from None',
                f"    proc.clock += {self.cost}",
                f"    proc.instructions += {self.count}",
                *self.tail,
                f"    return {self.result}",
            ]
        )
        exec(_step_code(source), self.env)  # noqa: S102 - own codegen
        return self.env["_step"]


@functools.lru_cache(maxsize=512)
def _step_code(source: str):
    """Code object for one step's source text.  Bounded: 512 entries
    hold a Fig. 12 sweep's distinct texts at +4 % daemon RSS."""
    return compile(source, "<decoded step>", "exec")


def _make_slow(ins: Instr, index: int, handler) -> Step:
    """A step around ``handler(proc, ins, frame)``: the instruction's
    ``Processor.OPS`` entry, or ``Processor._execute`` under a weak
    memory model (which drains fence targets, then dispatches)."""
    # Call/ret may change the frame or block: refetch on success.  Any
    # other success lands on index + 1 (blocking paths return False).
    proceed = -1 if ins.op in (Opcode.CALL, Opcode.RET) else index + 1

    def step(proc, frame, regs) -> int:
        frame.index = index
        proc.instructions += 1
        if handler(proc, ins, frame):
            return proceed
        return -2

    return step


def decode_function(function: Function, sim) -> Dict[str, List[Step]]:
    """Decodes every block of ``function`` into step lists for ``sim``.

    Each instruction belongs to exactly one step.  Entry points into a
    step list are the head of each fused run and each slow step;
    interior indices of a run are filled with a loud guard.  A run is
    cut where a processor can re-enter the block: after a shared
    access (a blocked remote access resumes at the next index, a
    remote split-phase one returns it) and before a ``sync_ctr`` (it
    re-executes on wake).  Nothing is compiled twice, so decode is
    linear in the block however accesses and syncs alternate.

    Shared accesses and ``sync_ctr`` fuse only when the run is
    untraced and sequentially consistent (see
    :meth:`_RunCompiler.add_shared`).  ``sim.delay_fences`` matters
    only under a weak memory model, and there every shared or sync
    access is a slow step, so ``Processor._execute`` drains the store
    buffer in front of each fence target.  Fence uids are delay-edge
    targets — never local opcodes; one that is would lose its drain
    silently inside a fused run, so it is rejected here instead.
    """
    pending = _pending_temps(function)
    shared_ok = sim.trace is None and sim.weak is None
    processor = sim.processor_class
    if sim.weak is not None and sim.delay_fences:
        for _block, _index, ins in function.instructions():
            if ins.op in FAST_OPS and ins.uid in sim.delay_fences:
                raise RuntimeFault(
                    f"{function.name}: delay fence on local instruction "
                    f"{ins} (fence uids must name shared or sync accesses)"
                )

    def fusable(ins: Instr) -> bool:
        if ins.op in FAST_OPS:
            return True
        if shared_ok and ins.op in SHARED_OPS:
            # Arity mismatches fault through ``_access`` instead.
            return len(ins.indices) == len(sim.memory.var(ins.var).dims)
        return shared_ok and ins.op is Opcode.SYNC_CTR

    decoded: Dict[str, List[Step]] = {}
    for block in function.blocks:
        instrs = block.instrs
        steps: List[Step] = [_unreachable] * len(instrs)
        i = 0
        while i < len(instrs):
            ins = instrs[i]
            if not fusable(ins):
                handler = (
                    processor.OPS[ins.op] if sim.weak is None
                    else processor._execute
                )
                steps[i] = _make_slow(ins, i, handler)
                i += 1
                continue
            run = _RunCompiler(function, sim.machine, pending, sim)
            j = i
            while j < len(instrs) and fusable(instrs[j]):
                ins = instrs[j]
                if ins.op is Opcode.SYNC_CTR:
                    if j > i:
                        break  # re-executes on wake: heads its own run
                    run.add_sync_ctr(ins, j)
                elif ins.op in SHARED_OPS:
                    run.add_shared(ins, j)
                else:
                    run.add(ins)
                j += 1
                if ins.op in SHARED_OPS:
                    break  # a remote access resumes, or returns, at j
            steps[i] = run.compile(j)
            i = j
        decoded[block.label] = steps
    return decoded
