"""Intermediate representation: instructions, CFG, dominators, inlining.

This package provides the standard compiler substrate the paper assumes
as input to its parallel analyses: a CFG per function, dominator trees,
and function inlining.  Register def-use is read per instruction
(``Instr.defined_temp`` / ``Instr.used_temps``) by the codegen passes
that need it.
"""

from repro.ir.cfg import BasicBlock, Function, Module
from repro.ir.dominators import DominatorTree, reverse_postorder
from repro.ir.inline import check_no_recursion, inline_all
from repro.ir.instructions import (
    MYPROC,
    PROCS,
    BinOpKind,
    Const,
    IndexMeta,
    Instr,
    LocalArray,
    LoopRange,
    Opcode,
    Operand,
    SharedVar,
    Temp,
    UnOpKind,
)
from repro.ir.lowering import lower_program

__all__ = [
    "BasicBlock",
    "Function",
    "Module",
    "Instr",
    "Opcode",
    "BinOpKind",
    "UnOpKind",
    "Temp",
    "Const",
    "Operand",
    "IndexMeta",
    "LoopRange",
    "SharedVar",
    "LocalArray",
    "MYPROC",
    "PROCS",
    "lower_program",
    "inline_all",
    "check_no_recursion",
    "DominatorTree",
    "reverse_postorder",
]
