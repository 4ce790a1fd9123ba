"""Index-metadata refinement: resolve single-assignment temps.

The lowering pass records index expressions symbolically, but a common
SPMD idiom hides the processor structure behind a local variable::

    int nb = (MYPROC + 1) % PROCS;
    ...
    E[nb * 64 + i] = ...;

The recorded form ``64*nb + i`` treats ``nb`` as an opaque symbol, which
makes the write self-conflict across processors — losing exactly the
precision the neighbor-exchange kernels need.  This pass resolves
symbols that name *single-assignment* temps by symbolically evaluating
their defining instruction chain, recognizing:

* constants, moves, ``+``/``-``/``*`` arithmetic;
* ``%``, by the rule lowering also uses
  (:meth:`repro.analysis.symbolic.SymExpr.modulo`): constants fold and
  ``(MYPROC + c) % PROCS`` is the permutation form.

Multi-assignment temps (loop variables, conditionally assigned values)
stay opaque symbols, which is always sound: at the access a temp's own
name, and inside another temp's def chain a fresh name per def, since
the temp may be reassigned between that def and the access.  The pass
rewrites ``IndexMeta`` in place and is idempotent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.symbolic import MYPROC_SYM, OPAQUE, SymExpr
from repro.ir.cfg import Function
from repro.ir.instructions import (
    BinOpKind,
    Const,
    IndexMeta,
    Instr,
    Opcode,
    Operand,
)


class _Resolver:
    """Memoized symbolic evaluation of single-assignment temps."""

    def __init__(self, function: Function):
        self._defs: Dict[str, List[Instr]] = {}
        for _block, _index, instr in function.instructions():
            defined = instr.defined_temp()
            if defined is not None:
                self._defs.setdefault(defined.name, []).append(instr)
        self._cache: Dict[str, SymExpr] = {}
        self._in_progress: Set[str] = set()

    def resolve_symbol(self, name: str,
                       reader: Optional[str] = None) -> SymExpr:
        """The symbolic value of a temp; falls back to a symbol.

        ``reader`` is the temp whose def reads ``name`` (None at the
        access itself).  A multiply-assigned temp may hold another value
        there than at the access, so it becomes the fresh symbol
        ``name@reader``, one per def, and is never cached.
        """
        if name == MYPROC_SYM:
            return SymExpr.symbol(MYPROC_SYM)
        if name == "PROCS":
            return SymExpr.procs()
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        defs = self._defs.get(name, [])
        if len(defs) != 1 or name in self._in_progress:
            return SymExpr.symbol(
                name if reader is None else f"{name}@{reader}")
        self._in_progress.add(name)
        resolved = self._eval_instr(defs[0], name)
        self._in_progress.discard(name)
        result = resolved if resolved is not None else SymExpr.symbol(name)
        self._cache[name] = result
        return result

    def _eval_operand(self, operand: Operand,
                      reader: str) -> Optional[SymExpr]:
        if isinstance(operand, Const):
            if isinstance(operand.value, int):
                return SymExpr.constant(operand.value)
            return None
        return self.resolve_symbol(operand.name, reader)

    def _eval_instr(self, instr: Instr, reader: str) -> Optional[SymExpr]:
        if instr.op is Opcode.CONST:
            if isinstance(instr.value, int):
                return SymExpr.constant(instr.value)
            return None
        if instr.op is Opcode.MOVE:
            return self._eval_operand(instr.src, reader)
        if instr.op is Opcode.BINOP:
            left = self._eval_operand(instr.lhs, reader)
            right = self._eval_operand(instr.rhs, reader)
            if left is None or right is None:
                return None
            if instr.binop is BinOpKind.ADD:
                return left + right
            if instr.binop is BinOpKind.SUB:
                return left - right
            if instr.binop is BinOpKind.MUL:
                return left.multiply(right)
            if instr.binop is BinOpKind.MOD:
                return left.modulo(right)
            return None
        return None


def _substitute(expr: SymExpr, resolver: _Resolver) -> SymExpr:
    """Rewrites an index form by resolving its symbols."""
    result = SymExpr(const=expr.const, procs_const=expr.procs_const,
                     perm_terms=expr.perm_terms)
    for sym, coeff in expr.terms:
        resolved = resolver.resolve_symbol(sym)
        result = result + resolved.scale(coeff)
    for sym, coeff in expr.procs_terms:
        resolved = resolver.resolve_symbol(sym)
        scaled = resolved.scale(coeff).multiply(SymExpr.procs())
        if scaled is None:
            # Could not keep the PROCS scaling affine; keep the
            # original opaque-symbol term.
            result = result + SymExpr(procs_terms=((sym, coeff),))
        else:
            result = result + scaled
    return result


def refine_index_metadata(function: Function) -> int:
    """Refines every access's IndexMeta in place; returns a change count."""
    resolver = _Resolver(function)
    changed = 0
    for _block, _index, instr in function.instructions():
        meta = instr.index_meta
        if meta is None or not meta.exprs:
            continue
        new_exprs = []
        any_change = False
        for expr in meta.exprs:
            if expr is OPAQUE:
                new_exprs.append(expr)
                continue
            refined = _substitute(expr, resolver)
            if refined != expr:
                any_change = True
            new_exprs.append(refined)
        if any_change:
            instr.index_meta = IndexMeta(
                exprs=tuple(new_exprs),
                loops=meta.loops,
                proc_guard=meta.proc_guard,
            )
            changed += 1
    return changed
