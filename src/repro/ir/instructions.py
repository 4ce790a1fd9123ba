"""The repro intermediate representation (IR).

The IR is a conventional three-address, basic-block representation with
two extensions that matter to the paper:

* **Shared-memory access instructions** carry *symbolic index metadata*:
  the source-level index expressions and the ranges of the enclosing
  loop variables.  The conflict analysis (:mod:`repro.analysis.indexing`)
  uses this metadata to prove that two distributed-array accesses can
  never touch the same element from two different processors.

* **Split-phase instructions** (``GET``/``PUT``/``STORE``/``SYNC_CTR``/
  ``STORE_SYNC``) model Split-C's weak memory operations.  The frontend
  never produces them — only blocking ``READ_SHARED``/``WRITE_SHARED``
  appear after lowering, exactly as in the paper's source language; the
  optimizer introduces split-phase forms during code generation (§6).

Operands are either virtual registers (:class:`Temp`) or constants
(:class:`Const`).  The reserved temps ``MYPROC`` and ``PROCS`` hold the
processor id and processor count; the analyses treat them symbolically.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple, Union

from repro.errors import SourceLocation
from repro.lang.types import Distribution, ScalarKind

# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Temp:
    """A virtual register (also used for named local scalars)."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Const:
    """An immediate int or double constant."""

    value: Union[int, float]

    def __str__(self) -> str:
        return str(self.value)


Operand = Union[Temp, Const]

#: Reserved temps every processor has pre-initialized.
MYPROC = Temp("MYPROC")
PROCS = Temp("PROCS")
RESERVED_TEMPS = (MYPROC, PROCS)


# ---------------------------------------------------------------------------
# Symbolic index metadata (consumed by the conflict analysis)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopRange:
    """The range of an enclosing counted loop variable.

    ``lo``/``hi`` are *inclusive* constant bounds when statically known,
    otherwise ``None`` (unbounded, treated conservatively).
    """

    var: str
    lo: Optional[int] = None
    hi: Optional[int] = None
    step: int = 1


@dataclass(frozen=True)
class IndexMeta:
    """Source-level index information attached to a shared access.

    ``exprs`` are the symbolic index expressions; ``loops`` are the
    enclosing loop-variable ranges, innermost last.  ``proc_guard`` is
    set when the access sits under an ``if (MYPROC == c)`` guard with a
    compile-time constant ``c`` — such an access executes on exactly one
    processor, so it can never cross-conflict with another access under
    the *same* guard.
    """

    exprs: Tuple[object, ...] = ()
    loops: Tuple[LoopRange, ...] = ()
    proc_guard: "Tuple[int, ...] | None" = None


# ---------------------------------------------------------------------------
# Opcodes
# ---------------------------------------------------------------------------


class Opcode(enum.Enum):
    # Members are singletons: identity hashing, not Enum's Python-level
    # ``hash(self._name_)``, under every opcode-keyed set and dict.
    __hash__ = object.__hash__

    # Local computation
    CONST = "const"
    MOVE = "move"
    BINOP = "binop"
    UNOP = "unop"
    INTRINSIC = "intrinsic"
    LOAD_LOCAL = "load_local"
    STORE_LOCAL = "store_local"

    # Blocking shared accesses (the source model, §2)
    READ_SHARED = "read_shared"
    WRITE_SHARED = "write_shared"

    # Split-phase operations (codegen output, §6)
    GET = "get"
    PUT = "put"
    STORE = "store"
    SYNC_CTR = "sync_ctr"
    STORE_SYNC = "store_sync"

    # Synchronization constructs (§5)
    POST = "post"
    WAIT = "wait"
    BARRIER = "barrier"
    LOCK = "lock"
    UNLOCK = "unlock"

    # Control flow
    JUMP = "jump"
    BRANCH = "branch"
    CALL = "call"
    RET = "ret"


class BinOpKind(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"


class UnOpKind(enum.Enum):
    NEG = "-"
    NOT = "!"


#: Opcodes that denote accesses to the shared address space or
#: synchronization — the vocabulary of the parallel analyses.
SHARED_ACCESS_OPCODES = frozenset(
    {
        Opcode.READ_SHARED,
        Opcode.WRITE_SHARED,
        Opcode.GET,
        Opcode.PUT,
        Opcode.STORE,
    }
)

SYNC_OPCODES = frozenset(
    {Opcode.POST, Opcode.WAIT, Opcode.BARRIER, Opcode.LOCK, Opcode.UNLOCK}
)

TERMINATOR_OPCODES = frozenset({Opcode.JUMP, Opcode.BRANCH, Opcode.RET})


_uid_counter = itertools.count(1)


def fresh_uid() -> int:
    """Globally-unique instruction id (stable across CFG edits)."""
    return next(_uid_counter)


@dataclass
class Instr:
    """A single IR instruction.

    One dataclass covers all opcodes; unused fields stay at their
    defaults.  ``uid`` survives transformations that *replace* an
    instruction with an equivalent one (e.g. READ_SHARED -> GET keeps the
    uid so delay-set edges remain meaningful); transformations that
    *introduce* new work allocate fresh uids.
    """

    op: Opcode
    uid: int = field(default_factory=fresh_uid)
    location: Optional[SourceLocation] = None

    # Local computation fields
    dest: Optional[Temp] = None
    value: Optional[Union[int, float]] = None
    binop: Optional[BinOpKind] = None
    unop: Optional[UnOpKind] = None
    lhs: Optional[Operand] = None
    rhs: Optional[Operand] = None
    src: Optional[Operand] = None
    intrinsic: Optional[str] = None
    args: Tuple[Operand, ...] = ()

    # Shared / local array access fields
    var: Optional[str] = None  # shared variable or local array name
    indices: Tuple[Operand, ...] = ()
    index_meta: Optional[IndexMeta] = None

    # Split-phase fields
    counter: Optional[int] = None  # synchronizing counter id
    #: a fused get deposits directly into a local array element
    #: (Split-C's ``get_ctr(&buf[i], &V[j], c)`` shape) instead of a temp
    local_array: Optional[str] = None
    local_indices: Tuple[Operand, ...] = ()

    # Control flow fields
    target: Optional[str] = None
    true_target: Optional[str] = None
    false_target: Optional[str] = None
    cond: Optional[Operand] = None
    callee: Optional[str] = None

    # -- classification helpers -------------------------------------------

    @property
    def is_shared_access(self) -> bool:
        return self.op in SHARED_ACCESS_OPCODES

    @property
    def is_sync(self) -> bool:
        return self.op in SYNC_OPCODES

    @property
    def is_shared_read(self) -> bool:
        return self.op in (Opcode.READ_SHARED, Opcode.GET)

    @property
    def is_shared_write(self) -> bool:
        return self.op in (Opcode.WRITE_SHARED, Opcode.PUT, Opcode.STORE)

    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATOR_OPCODES

    def copy(self, fresh: bool = False) -> "Instr":
        """A shallow copy (field values are immutable and stay shared);
        ``fresh=True`` assigns a new uid.  Built through ``__init__``, not
        ``__dict__``: touching an instance's ``__dict__`` moves CPython's
        attribute storage out of line and slows every later field read
        (the passes', the simulator's) of the original and the copy."""
        clone = Instr(*_field_values(self))
        if fresh:
            clone.uid = fresh_uid()
        return clone

    # -- dataflow helpers ---------------------------------------------------

    def defined_temp(self) -> Optional[Temp]:
        """The temp this instruction writes, if any."""
        if self.op in (
            Opcode.CONST,
            Opcode.MOVE,
            Opcode.BINOP,
            Opcode.UNOP,
            Opcode.INTRINSIC,
            Opcode.LOAD_LOCAL,
            Opcode.READ_SHARED,
            Opcode.GET,
            Opcode.CALL,
        ):
            return self.dest
        return None

    def used_operands(self) -> List[Operand]:
        """Every operand this instruction reads."""
        used: List[Operand] = []
        for operand in (self.lhs, self.rhs, self.src, self.cond):
            if operand is not None:
                used.append(operand)
        used.extend(self.args)
        used.extend(self.indices)
        used.extend(self.local_indices)
        return used

    def used_temps(self) -> List[Temp]:
        return [op for op in self.used_operands() if isinstance(op, Temp)]

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return format_instr(self)


#: Reads every field of an instruction, in constructor order.
_field_values = operator.attrgetter(*(f.name for f in fields(Instr)))


def format_instr(instr: Instr) -> str:
    """Renders an instruction in a readable assembly-like syntax."""
    op = instr.op
    idx = "".join(f"[{operand}]" for operand in instr.indices)
    if op is Opcode.CONST:
        return f"{instr.dest} = const {instr.value}"
    if op is Opcode.MOVE:
        return f"{instr.dest} = {instr.src}"
    if op is Opcode.BINOP:
        return f"{instr.dest} = {instr.lhs} {instr.binop.value} {instr.rhs}"
    if op is Opcode.UNOP:
        return f"{instr.dest} = {instr.unop.value}{instr.src}"
    if op is Opcode.INTRINSIC:
        args = ", ".join(str(a) for a in instr.args)
        return f"{instr.dest} = {instr.intrinsic}({args})"
    if op is Opcode.LOAD_LOCAL:
        return f"{instr.dest} = local {instr.var}{idx}"
    if op is Opcode.STORE_LOCAL:
        return f"local {instr.var}{idx} = {instr.src}"
    if op is Opcode.READ_SHARED:
        return f"{instr.dest} = read {instr.var}{idx}"
    if op is Opcode.WRITE_SHARED:
        return f"write {instr.var}{idx} = {instr.src}"
    if op is Opcode.GET:
        if instr.local_array is not None:
            lidx = "".join(f"[{op_}]" for op_ in instr.local_indices)
            return (
                f"get(&{instr.local_array}{lidx}, {instr.var}{idx}, "
                f"ctr{instr.counter})"
            )
        return f"get({instr.dest}, {instr.var}{idx}, ctr{instr.counter})"
    if op is Opcode.PUT:
        return f"put({instr.var}{idx}, {instr.src}, ctr{instr.counter})"
    if op is Opcode.STORE:
        return f"store({instr.var}{idx}, {instr.src})"
    if op is Opcode.SYNC_CTR:
        return f"sync_ctr(ctr{instr.counter})"
    if op is Opcode.STORE_SYNC:
        return "all_store_sync()"
    if op is Opcode.POST:
        return f"post {instr.var}{idx}"
    if op is Opcode.WAIT:
        return f"wait {instr.var}{idx}"
    if op is Opcode.BARRIER:
        return "barrier"
    if op is Opcode.LOCK:
        return f"lock {instr.var}{idx}"
    if op is Opcode.UNLOCK:
        return f"unlock {instr.var}{idx}"
    if op is Opcode.JUMP:
        return f"jump {instr.target}"
    if op is Opcode.BRANCH:
        return f"branch {instr.cond} ? {instr.true_target} : {instr.false_target}"
    if op is Opcode.CALL:
        args = ", ".join(str(a) for a in instr.args)
        dest = f"{instr.dest} = " if instr.dest is not None else ""
        return f"{dest}call {instr.callee}({args})"
    if op is Opcode.RET:
        return f"ret {instr.src}" if instr.src is not None else "ret"
    raise AssertionError(f"unhandled opcode {op}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Shared variable descriptors (module-level globals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedVar:
    """A module-level shared object: scalar, array, flag array, lock..."""

    name: str
    kind: ScalarKind
    dims: Tuple[int, ...] = ()
    distribution: Distribution = Distribution.BLOCK

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def element_count(self) -> int:
        count = 1
        for extent in self.dims:
            count *= extent
        return count

    @property
    def is_sync_object(self) -> bool:
        return self.kind in (ScalarKind.FLAG, ScalarKind.LOCK)


@dataclass(frozen=True)
class LocalArray:
    """A per-processor local array (invisible to the parallel analyses)."""

    name: str
    kind: ScalarKind
    dims: Tuple[int, ...]

    @property
    def element_count(self) -> int:
        count = 1
        for extent in self.dims:
            count *= extent
        return count
