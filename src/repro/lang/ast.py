"""Abstract syntax tree for MiniSplit.

Nodes are plain dataclasses.  Expression nodes carry a ``type`` slot
filled in by the checker (:mod:`repro.lang.checker`).  Every node carries
its source location for diagnostics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import SourceLocation
from repro.lang.types import Distribution, Type


class Node:
    """Base class for all AST nodes (purely for isinstance checks)."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    location: SourceLocation
    type: Optional[Type] = field(default=None, init=False, compare=False)


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class FloatLiteral(Expr):
    value: float = 0.0


@dataclass
class MyProc(Expr):
    """The builtin ``MYPROC`` — the executing processor's id."""


@dataclass
class NumProcs(Expr):
    """The builtin ``PROCS`` — the number of processors."""


@dataclass
class VarRef(Expr):
    """A reference to a scalar variable (local or shared)."""

    name: str = ""


@dataclass
class IndexExpr(Expr):
    """``base[i0][i1]...`` — indexing into a local or shared array."""

    base: Optional["VarRef"] = None
    indices: List[Expr] = field(default_factory=list)


class BinaryOp(enum.Enum):
    __hash__ = object.__hash__  # identity: see ``ir.instructions.Opcode``

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


class UnaryOp(enum.Enum):
    NEG = "-"
    NOT = "!"


@dataclass
class Binary(Expr):
    op: BinaryOp = BinaryOp.ADD
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class Unary(Expr):
    op: UnaryOp = UnaryOp.NEG
    operand: Optional[Expr] = None


@dataclass
class Call(Expr):
    """A call to a user function or intrinsic (``min``/``max``/...)."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    location: SourceLocation


@dataclass
class VarDecl(Stmt):
    """A local variable declaration, optionally initialized."""

    name: str = ""
    var_type: Optional[Type] = None
    init: Optional[Expr] = None


@dataclass
class Assign(Stmt):
    """``lvalue = expr;`` — the lvalue is a VarRef or IndexExpr."""

    target: Optional[Expr] = None
    value: Optional[Expr] = None


@dataclass
class If(Stmt):
    condition: Optional[Expr] = None
    then_body: Optional["Block"] = None
    else_body: Optional["Block"] = None


@dataclass
class While(Stmt):
    condition: Optional[Expr] = None
    body: Optional["Block"] = None


@dataclass
class For(Stmt):
    """C-style for; init/step are restricted to assignments."""

    init: Optional[Stmt] = None
    condition: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: Optional["Block"] = None


@dataclass
class Barrier(Stmt):
    """``barrier();`` — global barrier synchronization."""


@dataclass
class Post(Stmt):
    """``post(flag);`` — signal a post/wait event variable."""

    flag: Optional[Expr] = None


@dataclass
class Wait(Stmt):
    """``wait(flag);`` — block until the matching post."""

    flag: Optional[Expr] = None


@dataclass
class LockStmt(Stmt):
    """``lock(l);`` — acquire a mutual exclusion lock."""

    lock: Optional[Expr] = None


@dataclass
class UnlockStmt(Stmt):
    """``unlock(l);`` — release a mutual exclusion lock."""

    lock: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect (a void call)."""

    expr: Optional[Expr] = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class SharedDecl(Node):
    """A top-level ``shared`` declaration (scalar, flag, lock or array)."""

    location: SourceLocation
    name: str = ""
    var_type: Optional[Type] = None
    distribution: Distribution = Distribution.BLOCK


@dataclass
class Param(Node):
    location: SourceLocation
    name: str = ""
    param_type: Optional[Type] = None


@dataclass
class FuncDecl(Node):
    location: SourceLocation
    name: str = ""
    return_type: Optional[Type] = None
    params: List[Param] = field(default_factory=list)
    body: Optional[Block] = None


@dataclass
class Program(Node):
    """A whole MiniSplit translation unit.

    SPMD semantics: every processor executes ``main()``.
    """

    shared_decls: List[SharedDecl] = field(default_factory=list)
    functions: List[FuncDecl] = field(default_factory=list)

    def function(self, name: str) -> FuncDecl:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)

    def shared(self, name: str) -> SharedDecl:
        for decl in self.shared_decls:
            if decl.name == name:
                return decl
        raise KeyError(name)
