"""Lowering from the checked MiniSplit AST to the IR.

Beyond the usual expression/statement translation, lowering performs two
jobs for the parallel analyses:

* every shared access instruction gets :class:`~repro.ir.instructions.IndexMeta`
  — the access's index expressions in extended-affine symbolic form
  (:mod:`repro.analysis.symbolic`) plus the ranges of enclosing counted
  loops.  Local variable names are resolved to their unique temp names,
  so shadowing cannot confuse the conflict analysis.

* ``&&``/``||`` are lowered eagerly (both operands evaluated).  MiniSplit
  operands are side-effect-free apart from shared reads, and evaluating
  a shared read that C's short-circuiting would skip is always safe in
  this language (no traps), so the simpler lowering is semantically
  adequate; it also gives the analyses a single basic block to look at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CodegenError
from repro.lang import ast
from repro.lang.checker import INTRINSICS, CheckedProgram
from repro.lang.types import ScalarKind
from repro.analysis.symbolic import MaybeSymExpr, OPAQUE, SymExpr
from repro.ir.cfg import BasicBlock, Function, Module
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

_BINOP_MAP = {
    ast.BinaryOp.ADD: BinOpKind.ADD,
    ast.BinaryOp.SUB: BinOpKind.SUB,
    ast.BinaryOp.MUL: BinOpKind.MUL,
    ast.BinaryOp.DIV: BinOpKind.DIV,
    ast.BinaryOp.MOD: BinOpKind.MOD,
    ast.BinaryOp.EQ: BinOpKind.EQ,
    ast.BinaryOp.NE: BinOpKind.NE,
    ast.BinaryOp.LT: BinOpKind.LT,
    ast.BinaryOp.LE: BinOpKind.LE,
    ast.BinaryOp.GT: BinOpKind.GT,
    ast.BinaryOp.GE: BinOpKind.GE,
    ast.BinaryOp.AND: BinOpKind.AND,
    ast.BinaryOp.OR: BinOpKind.OR,
}


@dataclass
class _LoopRecord:
    """An enclosing counted loop while lowering its body."""

    var_sym: str
    lo: Optional[int]
    hi: Optional[int]
    step: int = 1
    invalidated: bool = False


class _ScopeMap:
    """Chained map from source names to lowering bindings."""

    def __init__(self, parent: Optional["_ScopeMap"] = None):
        self.parent = parent
        self._entries: Dict[str, object] = {}

    def bind(self, name: str, binding: object) -> None:
        self._entries[name] = binding

    def lookup(self, name: str) -> Optional[object]:
        scope: Optional[_ScopeMap] = self
        while scope is not None:
            if name in scope._entries:
                return scope._entries[name]
            scope = scope.parent
        return None


@dataclass
class _LocalBinding:
    temp: Temp
    #: symbolic value known from a dominating guard predicate, e.g.
    #: inside ``if (k % PROCS == MYPROC)`` the then-branch knows
    #: ``k = MYPROC + PROCS*m`` for some integer m >= 0.
    sym_override: Optional[SymExpr] = None


@dataclass
class _ArrayBinding:
    array: LocalArray


@dataclass
class _SharedBinding:
    var: SharedVar


class FunctionLowerer:
    """Lowers one function body into CFG form."""

    def __init__(self, checked: CheckedProgram, module: Module,
                 func: ast.FuncDecl):
        self._checked = checked
        self._module = module
        self._decl = func
        params = []
        self._function = Function(
            func.name,
            returns_value=func.return_type.kind is not ScalarKind.VOID,
        )
        self._root_scope = _ScopeMap()
        for name, var in module.shared_vars.items():
            self._root_scope.bind(name, _SharedBinding(var))
        self._scope = _ScopeMap(self._root_scope)
        for param in func.params:
            temp = self._function.new_temp(param.name)
            self._scope.bind(param.name, _LocalBinding(temp))
            params.append(temp)
        self._function.params = params
        self._current = self._function.new_block("entry")
        self._loops: List[_LoopRecord] = []
        self._proc_guards: List[int] = []
        #: loop-var temp name -> guard symbol standing in for it (the
        #: ownership-guard override: k = MYPROC + PROCS*g makes g an
        #: injective function of k, so g can represent k in the
        #: loop-iteration vector)
        self._loop_var_standins: Dict[str, str] = {}

    # -- helpers ----------------------------------------------------------

    def _emit(self, instr: Instr) -> Instr:
        self._current.append(instr)
        return instr

    def _terminate(self, instr: Instr) -> None:
        if self._current.instrs and self._current.instrs[-1].is_terminator:
            return  # dead code after return; drop extra terminator
        self._current.append(instr)

    def _jump(self, target: BasicBlock) -> None:
        self._terminate(Instr(Opcode.JUMP, target=target.label))

    def _index_meta(self, indices: List[ast.Expr],
                    scope: "_ScopeMap") -> IndexMeta:
        """Builds symbolic index metadata under the given scope/loops."""
        sym_exprs: Tuple[MaybeSymExpr, ...] = tuple(
            self._symbolic(expr, scope) for expr in indices
        )
        loops = []
        for record in self._loops:
            standin = self._loop_var_standins.get(record.var_sym)
            if standin is not None:
                # Inside the ownership guard the loop variable is
                # represented by the guard symbol (unbounded).
                loops.append(LoopRange(var=standin))
            else:
                loops.append(
                    LoopRange(
                        var=record.var_sym,
                        lo=None if record.invalidated else record.lo,
                        hi=None if record.invalidated else record.hi,
                        step=record.step,
                    )
                )
        loops = tuple(loops)
        guard = tuple(self._proc_guards) if self._proc_guards else None
        return IndexMeta(exprs=sym_exprs, loops=loops, proc_guard=guard)

    def _symbolic(self, expr: ast.Expr, scope: "_ScopeMap") -> MaybeSymExpr:
        """Translates an index AST to an extended affine form (or OPAQUE)."""
        symbolic = _SYMBOLIC.get(type(expr))
        return OPAQUE if symbolic is None else symbolic(self, expr, scope)

    def _symbolic_var(self, expr: ast.VarRef,
                      scope: "_ScopeMap") -> MaybeSymExpr:
        binding = scope.lookup(expr.name)
        if isinstance(binding, _LocalBinding):
            if binding.sym_override is not None:
                return binding.sym_override
            return SymExpr.symbol(binding.temp.name)
        return OPAQUE

    def _symbolic_unary(self, expr: ast.Unary,
                        scope: "_ScopeMap") -> MaybeSymExpr:
        if expr.op is not ast.UnaryOp.NEG:
            return OPAQUE
        inner = self._symbolic(expr.operand, scope)
        if inner is OPAQUE:
            return OPAQUE
        return -inner

    def _symbolic_binary(self, expr: ast.Binary,
                         scope: "_ScopeMap") -> MaybeSymExpr:
        left = self._symbolic(expr.left, scope)
        right = self._symbolic(expr.right, scope)
        if left is OPAQUE or right is OPAQUE:
            return OPAQUE
        if expr.op is ast.BinaryOp.ADD:
            return left + right
        if expr.op is ast.BinaryOp.SUB:
            return left - right
        if expr.op is ast.BinaryOp.MUL:
            return left.multiply(right)
        if expr.op is ast.BinaryOp.MOD:
            return left.modulo(right)
        return OPAQUE

    def _const_value(self, expr: ast.Expr) -> Optional[int]:
        """Statically evaluates an int expression, if possible."""
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.Unary) and expr.op is ast.UnaryOp.NEG:
            inner = self._const_value(expr.operand)
            return None if inner is None else -inner
        if isinstance(expr, ast.Binary):
            left = self._const_value(expr.left)
            right = self._const_value(expr.right)
            if left is None or right is None:
                return None
            op = expr.op
            if op is ast.BinaryOp.ADD:
                return left + right
            if op is ast.BinaryOp.SUB:
                return left - right
            if op is ast.BinaryOp.MUL:
                return left * right
            if op is ast.BinaryOp.DIV and right != 0:
                return int(left / right)
            if op is ast.BinaryOp.MOD and right != 0:
                return left - int(left / right) * right
        return None

    # -- entry point ---------------------------------------------------------

    def lower(self) -> Function:
        self._lower_block(self._decl.body, self._scope)
        self._terminate(Instr(Opcode.RET))
        self._function.remove_unreachable_blocks()
        self._function.verify()
        return self._function

    # -- statements -----------------------------------------------------------

    def _lower_block(self, block: ast.Block, parent: _ScopeMap) -> None:
        scope = _ScopeMap(parent)
        for stmt in block.statements:
            self._lower_statement(stmt, scope)

    def _lower_statement(self, stmt: ast.Stmt, scope: _ScopeMap) -> None:
        if isinstance(stmt, ast.Block):
            self._lower_block(stmt, scope)
        elif isinstance(stmt, ast.VarDecl):
            self._lower_var_decl(stmt, scope)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt, scope)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt, scope)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt, scope)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt, scope)
        elif isinstance(stmt, ast.Barrier):
            self._emit(Instr(Opcode.BARRIER, location=stmt.location))
        elif isinstance(stmt, ast.Post):
            self._lower_sync(Opcode.POST, stmt.flag, scope, stmt)
        elif isinstance(stmt, ast.Wait):
            self._lower_sync(Opcode.WAIT, stmt.flag, scope, stmt)
        elif isinstance(stmt, ast.LockStmt):
            self._lower_sync(Opcode.LOCK, stmt.lock, scope, stmt)
        elif isinstance(stmt, ast.UnlockStmt):
            self._lower_sync(Opcode.UNLOCK, stmt.lock, scope, stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expression(stmt.expr, scope)
        elif isinstance(stmt, ast.Return):
            src = None
            if stmt.value is not None:
                src = self._lower_expression(stmt.value, scope)
            self._terminate(Instr(Opcode.RET, src=src, location=stmt.location))
            self._current = self._function.new_block("dead")
        else:  # pragma: no cover - defensive
            raise CodegenError(f"cannot lower {type(stmt).__name__}")

    def _lower_var_decl(self, decl: ast.VarDecl, scope: _ScopeMap) -> None:
        if decl.var_type.is_array:
            array = LocalArray(
                name=f"{decl.name}.{len(self._function.local_arrays)}",
                kind=decl.var_type.kind,
                dims=decl.var_type.dims,
            )
            self._function.local_arrays[array.name] = array
            scope.bind(decl.name, _ArrayBinding(array))
            return
        temp = self._function.new_temp(decl.name)
        scope.bind(decl.name, _LocalBinding(temp))
        if decl.init is not None:
            value = self._lower_expression(decl.init, scope)
            self._emit(Instr(Opcode.MOVE, dest=temp, src=value,
                             location=decl.location))
        else:
            self._emit(Instr(Opcode.CONST, dest=temp, value=0,
                             location=decl.location))

    def _invalidate_loops_for(self, temp: Temp) -> None:
        for record in self._loops:
            if record.var_sym == temp.name:
                record.invalidated = True

    def _lower_assign(self, stmt: ast.Assign, scope: _ScopeMap) -> None:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            binding = scope.lookup(target.name)
            if isinstance(binding, _LocalBinding):
                value = self._lower_expression(stmt.value, scope)
                self._invalidate_loops_for(binding.temp)
                if binding.sym_override is not None:
                    # The guard fact no longer holds after reassignment.
                    scope.bind(target.name, _LocalBinding(binding.temp))
                self._emit(
                    Instr(Opcode.MOVE, dest=binding.temp, src=value,
                          location=stmt.location)
                )
                return
            if isinstance(binding, _SharedBinding):
                value = self._lower_expression(stmt.value, scope)
                self._emit(
                    Instr(
                        Opcode.WRITE_SHARED,
                        var=binding.var.name,
                        indices=(),
                        src=value,
                        index_meta=self._index_meta([], scope),
                        location=stmt.location,
                    )
                )
                return
            raise CodegenError(f"cannot assign to {target.name!r}")
        if isinstance(target, ast.IndexExpr):
            binding = scope.lookup(target.base.name)
            index_operands = tuple(
                self._lower_expression(index, scope) for index in target.indices
            )
            value = self._lower_expression(stmt.value, scope)
            if isinstance(binding, _ArrayBinding):
                self._emit(
                    Instr(
                        Opcode.STORE_LOCAL,
                        var=binding.array.name,
                        indices=index_operands,
                        src=value,
                        location=stmt.location,
                    )
                )
                return
            if isinstance(binding, _SharedBinding):
                self._emit(
                    Instr(
                        Opcode.WRITE_SHARED,
                        var=binding.var.name,
                        indices=index_operands,
                        src=value,
                        index_meta=self._index_meta(list(target.indices), scope),
                        location=stmt.location,
                    )
                )
                return
            raise CodegenError(f"cannot assign to {target.base.name!r}")
        raise CodegenError("bad assignment target")  # pragma: no cover

    def _lower_sync(
        self, op: Opcode, operand: ast.Expr, scope: _ScopeMap, stmt: ast.Stmt
    ) -> None:
        if isinstance(operand, ast.VarRef):
            name, indices = operand.name, []
        else:
            assert isinstance(operand, ast.IndexExpr)
            name, indices = operand.base.name, list(operand.indices)
        binding = scope.lookup(name)
        assert isinstance(binding, _SharedBinding)
        index_operands = tuple(
            self._lower_expression(index, scope) for index in indices
        )
        self._emit(
            Instr(
                op,
                var=binding.var.name,
                indices=index_operands,
                index_meta=self._index_meta(indices, scope),
                location=stmt.location,
            )
        )

    def _guarded_binding(
        self, condition: ast.Expr, scope: _ScopeMap
    ) -> Optional[Tuple[str, "_LocalBinding"]]:
        """Recognizes ``V % PROCS == MYPROC`` guards (either operand
        order).  Inside the then-branch the guarded variable is known to
        be ``MYPROC + PROCS*m`` for some integer m — the SPMD ownership
        idiom (``if (k % PROCS == MYPROC) ...``)."""
        if not isinstance(condition, ast.Binary):
            return None
        if condition.op is not ast.BinaryOp.EQ:
            return None
        sides = [condition.left, condition.right]
        for mod_side, proc_side in (sides, sides[::-1]):
            if not isinstance(proc_side, ast.MyProc):
                continue
            if not (
                isinstance(mod_side, ast.Binary)
                and mod_side.op is ast.BinaryOp.MOD
                and isinstance(mod_side.left, ast.VarRef)
                and isinstance(mod_side.right, ast.NumProcs)
            ):
                continue
            name = mod_side.left.name
            binding = scope.lookup(name)
            if not isinstance(binding, _LocalBinding):
                continue
            fresh = f"guard.{self._function.fresh_label('g')}"
            override = (
                SymExpr.symbol("MYPROC")
                + SymExpr.procs().multiply(SymExpr.symbol(fresh))
            )
            return name, _LocalBinding(binding.temp, override), fresh
        return None

    def _myproc_guard_constant(self, condition: ast.Expr) -> Optional[int]:
        """Recognizes ``MYPROC == <int const>`` guards (either order)."""
        if not isinstance(condition, ast.Binary):
            return None
        if condition.op is not ast.BinaryOp.EQ:
            return None
        for proc_side, const_side in (
            (condition.left, condition.right),
            (condition.right, condition.left),
        ):
            if isinstance(proc_side, ast.MyProc):
                value = self._const_value(const_side)
                if value is not None:
                    return value
        return None

    def _lower_if(self, stmt: ast.If, scope: _ScopeMap) -> None:
        cond = self._lower_expression(stmt.condition, scope)
        then_block = self._function.new_block("then")
        join_block = self._function.new_block("join")
        else_block = (
            self._function.new_block("else")
            if stmt.else_body is not None
            else join_block
        )
        self._terminate(
            Instr(
                Opcode.BRANCH,
                cond=cond,
                true_target=then_block.label,
                false_target=else_block.label,
                location=stmt.location,
            )
        )
        self._current = then_block
        then_scope = _ScopeMap(scope)
        guarded = self._guarded_binding(stmt.condition, scope)
        standin_key = None
        if guarded is not None:
            name, binding, fresh = guarded
            then_scope.bind(name, binding)
            standin_key = binding.temp.name
            self._loop_var_standins[standin_key] = fresh
        proc_guard = self._myproc_guard_constant(stmt.condition)
        if proc_guard is not None:
            self._proc_guards.append(proc_guard)
        self._lower_block(stmt.then_body, then_scope)
        if proc_guard is not None:
            self._proc_guards.pop()
        if standin_key is not None:
            del self._loop_var_standins[standin_key]
        self._jump(join_block)
        if stmt.else_body is not None:
            self._current = else_block
            self._lower_block(stmt.else_body, scope)
            self._jump(join_block)
        self._current = join_block

    def _lower_while(self, stmt: ast.While, scope: _ScopeMap) -> None:
        header = self._function.new_block("while_head")
        body = self._function.new_block("while_body")
        exit_block = self._function.new_block("while_exit")
        self._jump(header)
        self._current = header
        cond = self._lower_expression(stmt.condition, scope)
        self._terminate(
            Instr(
                Opcode.BRANCH,
                cond=cond,
                true_target=body.label,
                false_target=exit_block.label,
                location=stmt.location,
            )
        )
        self._current = body
        self._lower_block(stmt.body, scope)
        self._jump(header)
        self._current = exit_block

    def _recognize_counted_loop(
        self, stmt: ast.For, scope: _ScopeMap
    ) -> Optional[Tuple[str, Optional[int], Optional[int], int]]:
        """Matches ``for (i = E0; i < E1; i = i + c)`` shapes.

        Returns (source var name, lo, hi_exclusive, step) with None bounds
        when not statically constant.  Recognizing the shape lets the
        conflict analysis bound the loop variable; failing to match is
        always safe (the variable is just unbounded).
        """
        init_name: Optional[str] = None
        lo: Optional[int] = None
        if isinstance(stmt.init, ast.VarDecl) and not stmt.init.var_type.is_array:
            init_name = stmt.init.name
            if stmt.init.init is not None:
                lo = self._const_value(stmt.init.init)
        elif isinstance(stmt.init, ast.Assign) and isinstance(
            stmt.init.target, ast.VarRef
        ):
            init_name = stmt.init.target.name
            lo = self._const_value(stmt.init.value)
        if init_name is None:
            return None

        cond = stmt.condition
        hi: Optional[int] = None
        if (
            isinstance(cond, ast.Binary)
            and cond.op in (ast.BinaryOp.LT, ast.BinaryOp.LE)
            and isinstance(cond.left, ast.VarRef)
            and cond.left.name == init_name
        ):
            bound = self._const_value(cond.right)
            if bound is not None:
                hi = bound + 1 if cond.op is ast.BinaryOp.LE else bound
        else:
            return None

        step = stmt.step
        if (
            isinstance(step, ast.Assign)
            and isinstance(step.target, ast.VarRef)
            and step.target.name == init_name
            and isinstance(step.value, ast.Binary)
            and step.value.op is ast.BinaryOp.ADD
            and isinstance(step.value.left, ast.VarRef)
            and step.value.left.name == init_name
        ):
            increment = self._const_value(step.value.right)
            if increment is None or increment <= 0:
                return None
            return init_name, lo, hi, increment
        return None

    def _lower_for(self, stmt: ast.For, scope: _ScopeMap) -> None:
        inner = _ScopeMap(scope)
        counted = self._recognize_counted_loop(stmt, inner)
        if stmt.init is not None:
            self._lower_statement(stmt.init, inner)

        header = self._function.new_block("for_head")
        body = self._function.new_block("for_body")
        exit_block = self._function.new_block("for_exit")
        self._jump(header)
        self._current = header
        if stmt.condition is not None:
            cond = self._lower_expression(stmt.condition, inner)
            self._terminate(
                Instr(
                    Opcode.BRANCH,
                    cond=cond,
                    true_target=body.label,
                    false_target=exit_block.label,
                    location=stmt.location,
                )
            )
        else:
            self._jump(body)

        record: Optional[_LoopRecord] = None
        if counted is not None:
            var_name, lo, hi, step = counted
            binding = inner.lookup(var_name)
            if isinstance(binding, _LocalBinding):
                # hi is the exclusive bound: the loop variable stays in
                # [lo, hi - 1] inside the body.
                record = _LoopRecord(
                    var_sym=binding.temp.name,
                    lo=lo,
                    hi=None if hi is None else hi - 1,
                    step=step,
                )
                self._loops.append(record)

        self._current = body
        self._lower_block(stmt.body, inner)
        if record is not None:
            # The step assignment re-defines the loop variable; pop the
            # record first so the step itself does not invalidate it.
            self._loops.pop()
        if stmt.step is not None:
            self._lower_statement(stmt.step, inner)
        self._jump(header)
        self._current = exit_block

    # -- expressions --------------------------------------------------------

    def _lower_expression(self, expr: ast.Expr, scope: _ScopeMap) -> Operand:
        lower = _LOWER_EXPRESSION.get(type(expr))
        if lower is None:  # pragma: no cover - defensive
            raise CodegenError(f"cannot lower expression {type(expr).__name__}")
        return lower(self, expr, scope)

    def _lower_var(self, expr: ast.VarRef, scope: _ScopeMap) -> Operand:
        binding = scope.lookup(expr.name)
        if isinstance(binding, _LocalBinding):
            return binding.temp
        if isinstance(binding, _SharedBinding):
            dest = self._function.new_temp("rd")
            self._emit(Instr(Opcode.READ_SHARED, dest=dest,
                             var=binding.var.name, indices=(),
                             index_meta=self._index_meta([], scope),
                             location=expr.location))
            return dest
        raise CodegenError(f"cannot read {expr.name!r}")

    def _lower_index(self, expr: ast.IndexExpr, scope: _ScopeMap) -> Operand:
        binding = scope.lookup(expr.base.name)
        index_operands = tuple(
            self._lower_expression(index, scope) for index in expr.indices
        )
        dest = self._function.new_temp("rd")
        if isinstance(binding, _ArrayBinding):
            self._emit(Instr(Opcode.LOAD_LOCAL, dest=dest,
                             var=binding.array.name, indices=index_operands,
                             location=expr.location))
            return dest
        if isinstance(binding, _SharedBinding):
            self._emit(Instr(Opcode.READ_SHARED, dest=dest,
                             var=binding.var.name, indices=index_operands,
                             index_meta=self._index_meta(
                                 list(expr.indices), scope),
                             location=expr.location))
            return dest
        raise CodegenError(f"cannot index {expr.base.name!r}")

    def _lower_binary(self, expr: ast.Binary, scope: _ScopeMap) -> Operand:
        lhs = self._lower_expression(expr.left, scope)
        rhs = self._lower_expression(expr.right, scope)
        dest = self._function.new_temp("t")
        self._emit(Instr(Opcode.BINOP, dest=dest, binop=_BINOP_MAP[expr.op],
                         lhs=lhs, rhs=rhs, location=expr.location))
        return dest

    def _lower_unary(self, expr: ast.Unary, scope: _ScopeMap) -> Operand:
        src = self._lower_expression(expr.operand, scope)
        dest = self._function.new_temp("t")
        unop = UnOpKind.NEG if expr.op is ast.UnaryOp.NEG else UnOpKind.NOT
        self._emit(Instr(Opcode.UNOP, dest=dest, unop=unop, src=src,
                         location=expr.location))
        return dest

    def _lower_call(self, expr: ast.Call, scope: _ScopeMap) -> Operand:
        args = tuple(self._lower_expression(arg, scope) for arg in expr.args)
        if expr.name in INTRINSICS:
            dest = self._function.new_temp("t")
            self._emit(Instr(Opcode.INTRINSIC, dest=dest, intrinsic=expr.name,
                             args=args, location=expr.location))
            return dest
        func = self._checked.functions[expr.name]
        dest = None
        if func.return_type.kind is not ScalarKind.VOID:
            dest = self._function.new_temp("t")
        self._emit(Instr(Opcode.CALL, dest=dest, callee=expr.name, args=args,
                         location=expr.location))
        return dest if dest is not None else Const(0)


#: Expression node type -> its ``FunctionLowerer`` method; a type absent
#: from ``_SYMBOLIC`` has no affine form.
_LOWER_EXPRESSION: Dict[type, Callable[..., Operand]] = {
    ast.IntLiteral: lambda self, expr, scope: Const(expr.value),
    ast.FloatLiteral: lambda self, expr, scope: Const(expr.value),
    ast.MyProc: lambda self, expr, scope: MYPROC,
    ast.NumProcs: lambda self, expr, scope: PROCS,
    ast.VarRef: FunctionLowerer._lower_var,
    ast.IndexExpr: FunctionLowerer._lower_index,
    ast.Binary: FunctionLowerer._lower_binary,
    ast.Unary: FunctionLowerer._lower_unary,
    ast.Call: FunctionLowerer._lower_call,
}
_SYMBOLIC: Dict[type, Callable[..., MaybeSymExpr]] = {
    ast.IntLiteral: lambda self, expr, scope: SymExpr.constant(expr.value),
    ast.MyProc: lambda self, expr, scope: SymExpr.symbol("MYPROC"),
    ast.NumProcs: lambda self, expr, scope: SymExpr.procs(),
    ast.VarRef: FunctionLowerer._symbolic_var,
    ast.Unary: FunctionLowerer._symbolic_unary,
    ast.Binary: FunctionLowerer._symbolic_binary,
}


def lower_program(checked: CheckedProgram) -> Module:
    """Lowers a checked program to an IR module."""
    module = Module()
    for decl in checked.program.shared_decls:
        module.shared_vars[decl.name] = SharedVar(
            name=decl.name,
            kind=decl.var_type.kind,
            dims=decl.var_type.dims,
            distribution=decl.distribution,
        )
    for func in checked.program.functions:
        module.functions[func.name] = FunctionLowerer(
            checked, module, func
        ).lower()
    module.verify()
    return module
