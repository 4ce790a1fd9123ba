"""Semantic analysis for MiniSplit.

The checker walks the AST, builds symbol tables, decorates every
expression with its type, and enforces the language restrictions that
make the paper's analyses tractable (section 2):

* flags and locks must be ``shared`` (they synchronize processors);
* no global pointers — arrays and scalars only;
* post/wait take flag operands, lock/unlock take lock operands;
* shared flags/locks cannot be read or written as data;
* local variables are int/double (local data never enters the conflict
  analysis).

The output is a :class:`CheckedProgram` bundling the typed AST with the
symbol information the lowering pass needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import TypeError_
from repro.lang import ast
from repro.lang.symbols import Scope, Symbol, SymbolKind
from repro.lang.types import (
    DOUBLE,
    INT,
    ScalarKind,
    Type,
    arithmetic_result,
    assignable,
)

#: Intrinsic functions available without declaration.  Each maps to
#: (arity, parameter-kind constraint, result policy).  ``numeric`` results
#: follow the usual arithmetic conversions of the arguments.
INTRINSICS = {
    "min": 2,
    "max": 2,
    "abs": 1,
    "sqrt": 1,
    "floor": 1,
    "exp": 1,
    "sin": 1,
    "cos": 1,
}

#: Intrinsics that always produce a double result.
_DOUBLE_RESULT_INTRINSICS = {"sqrt", "exp", "sin", "cos"}
#: Intrinsics that always produce an int result.
_INT_RESULT_INTRINSICS = {"floor"}


@dataclass
class CheckedProgram:
    """A type-checked program plus its symbol information."""

    program: ast.Program
    global_scope: Scope
    #: name -> declared shared type (flags/locks included)
    shared_types: Dict[str, Type] = field(default_factory=dict)
    #: function name -> FuncDecl
    functions: Dict[str, ast.FuncDecl] = field(default_factory=dict)


class Checker:
    """Single-pass type checker; see module docstring."""

    def __init__(self, program: ast.Program):
        self._program = program
        self._global_scope = Scope()
        self._shared_types: Dict[str, Type] = {}
        self._functions: Dict[str, ast.FuncDecl] = {}
        self._current_return_type: Optional[Type] = None
        self._lock_depth = 0

    def check(self) -> CheckedProgram:
        for decl in self._program.shared_decls:
            self._declare_shared(decl)
        for func in self._program.functions:
            self._declare_function(func)
        if "main" not in self._functions:
            raise TypeError_("program has no main() function")
        main = self._functions["main"]
        if main.params or main.return_type.kind is not ScalarKind.VOID:
            raise TypeError_(
                "main must be declared 'void main()'", main.location
            )
        for func in self._program.functions:
            self._check_function(func)
        return CheckedProgram(
            program=self._program,
            global_scope=self._global_scope,
            shared_types=self._shared_types,
            functions=self._functions,
        )

    # -- declarations ---------------------------------------------------

    def _declare_shared(self, decl: ast.SharedDecl) -> None:
        self._global_scope.declare(
            Symbol(decl.name, SymbolKind.SHARED, decl.var_type, decl.location)
        )
        self._shared_types[decl.name] = decl.var_type

    def _declare_function(self, func: ast.FuncDecl) -> None:
        if func.name in INTRINSICS:
            raise TypeError_(
                f"{func.name!r} is a builtin intrinsic and cannot be redefined",
                func.location,
            )
        self._global_scope.declare(
            Symbol(func.name, SymbolKind.FUNCTION, func.return_type, func.location)
        )
        self._functions[func.name] = func

    # -- functions and statements ----------------------------------------

    def _check_function(self, func: ast.FuncDecl) -> None:
        scope = Scope(self._global_scope)
        for param in func.params:
            scope.declare(
                Symbol(param.name, SymbolKind.PARAM, param.param_type,
                       param.location)
            )
        self._current_return_type = func.return_type
        self._lock_depth = 0
        self._check_block(func.body, scope)
        if self._lock_depth != 0:
            raise TypeError_(
                f"function {func.name!r} has unbalanced lock/unlock "
                "along its straight-line body",
                func.location,
            )

    def _check_block(self, block: ast.Block, parent: Scope) -> None:
        scope = Scope(parent)
        for stmt in block.statements:
            self._check_statement(stmt, scope)

    def _check_statement(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope)
        elif isinstance(stmt, ast.VarDecl):
            self._check_var_decl(stmt, scope)
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt, scope)
        elif isinstance(stmt, ast.If):
            self._check_numeric(stmt.condition, scope, "if condition")
            self._check_block(stmt.then_body, scope)
            if stmt.else_body is not None:
                self._check_block(stmt.else_body, scope)
        elif isinstance(stmt, ast.While):
            self._check_numeric(stmt.condition, scope, "while condition")
            self._check_block(stmt.body, scope)
        elif isinstance(stmt, ast.For):
            inner = Scope(scope)
            if stmt.init is not None:
                self._check_statement(stmt.init, inner)
            if stmt.condition is not None:
                self._check_numeric(stmt.condition, inner, "for condition")
            if stmt.step is not None:
                self._check_statement(stmt.step, inner)
            self._check_block(stmt.body, inner)
        elif isinstance(stmt, ast.Barrier):
            pass
        elif isinstance(stmt, ast.Post):
            self._check_sync_operand(stmt.flag, scope, ScalarKind.FLAG, "post")
        elif isinstance(stmt, ast.Wait):
            self._check_sync_operand(stmt.flag, scope, ScalarKind.FLAG, "wait")
        elif isinstance(stmt, ast.LockStmt):
            self._check_sync_operand(stmt.lock, scope, ScalarKind.LOCK, "lock")
            self._lock_depth += 1
        elif isinstance(stmt, ast.UnlockStmt):
            self._check_sync_operand(stmt.lock, scope, ScalarKind.LOCK, "unlock")
            self._lock_depth -= 1
        elif isinstance(stmt, ast.ExprStmt):
            expr_type = self._check_expression(stmt.expr, scope)
            if expr_type.kind is not ScalarKind.VOID:
                raise TypeError_(
                    "only void calls may be used as statements", stmt.location
                )
        elif isinstance(stmt, ast.Return):
            expected = self._current_return_type
            if expected.kind is ScalarKind.VOID:
                if stmt.value is not None:
                    raise TypeError_(
                        "void function cannot return a value", stmt.location
                    )
            else:
                if stmt.value is None:
                    raise TypeError_(
                        "non-void function must return a value", stmt.location
                    )
                value_type = self._check_expression(stmt.value, scope)
                if not assignable(expected, value_type):
                    raise TypeError_(
                        f"cannot return {value_type} from a function "
                        f"returning {expected}",
                        stmt.location,
                    )
        else:  # pragma: no cover - defensive
            raise TypeError_(f"unknown statement {type(stmt).__name__}",
                             stmt.location)

    def _check_var_decl(self, decl: ast.VarDecl, scope: Scope) -> None:
        scope.declare(
            Symbol(decl.name, SymbolKind.LOCAL, decl.var_type, decl.location)
        )
        if decl.init is not None:
            init_type = self._check_expression(decl.init, scope)
            if not assignable(decl.var_type, init_type):
                raise TypeError_(
                    f"cannot initialize {decl.var_type} with {init_type}",
                    decl.location,
                )

    def _check_assign(self, stmt: ast.Assign, scope: Scope) -> None:
        target_type = self._check_expression(stmt.target, scope)
        if target_type.is_sync_object:
            raise TypeError_(
                "flags and locks may only be used with "
                "post/wait/lock/unlock",
                stmt.location,
            )
        value_type = self._check_expression(stmt.value, scope)
        if not assignable(target_type, value_type):
            raise TypeError_(
                f"cannot assign {value_type} to {target_type}", stmt.location
            )

    def _check_sync_operand(
        self, expr: ast.Expr, scope: Scope, expected: ScalarKind, what: str
    ) -> None:
        if not isinstance(expr, (ast.VarRef, ast.IndexExpr)):
            raise TypeError_(
                f"{what} operand must be a {expected.value} variable or element",
                expr.location,
            )
        operand_type = self._check_expression(expr, scope, allow_sync=True)
        if operand_type.kind is not expected or operand_type.is_array:
            raise TypeError_(
                f"{what} requires a {expected.value} operand, got {operand_type}",
                expr.location,
            )
        if not operand_type.shared:
            raise TypeError_(
                f"{what} operand must be shared", expr.location
            )

    # -- expressions -------------------------------------------------------

    def _check_numeric(
        self, expr: ast.Expr, scope: Scope, context: str
    ) -> Type:
        expr_type = self._check_expression(expr, scope)
        if not expr_type.is_numeric:
            raise TypeError_(
                f"{context} must be numeric, got {expr_type}", expr.location
            )
        return expr_type

    def _check_expression(
        self, expr: ast.Expr, scope: Scope, allow_sync: bool = False
    ) -> Type:
        expr_type = self._infer(expr, scope, allow_sync)
        expr.type = expr_type
        return expr_type

    def _infer(self, expr: ast.Expr, scope: Scope, allow_sync: bool) -> Type:
        infer = _INFER.get(type(expr))
        if infer is None:  # pragma: no cover - defensive
            raise TypeError_(f"unknown expression {type(expr).__name__}",
                             expr.location)
        return infer(self, expr, scope, allow_sync)

    def _infer_var(self, expr: ast.VarRef, scope: Scope,
                   allow_sync: bool) -> Type:
        symbol = scope.lookup(expr.name)
        if symbol is None:
            raise TypeError_(f"undeclared variable {expr.name!r}",
                             expr.location)
        if symbol.kind is SymbolKind.FUNCTION:
            raise TypeError_(f"{expr.name!r} is a function, not a variable",
                             expr.location)
        if symbol.type.is_sync_object and not allow_sync:
            raise TypeError_("flags and locks may only appear in "
                             "post/wait/lock/unlock", expr.location)
        return symbol.type

    def _infer_index(self, expr: ast.IndexExpr, scope: Scope,
                     allow_sync: bool) -> Type:
        base_type = self._check_expression(expr.base, scope, allow_sync=True)
        if not base_type.is_array:
            raise TypeError_(f"{expr.base.name!r} is not an array",
                             expr.location)
        if len(expr.indices) != len(base_type.dims):
            raise TypeError_(
                f"{expr.base.name!r} has {len(base_type.dims)} "
                f"dimension(s), got {len(expr.indices)} index(es)",
                expr.location,
            )
        for index in expr.indices:
            index_type = self._check_expression(index, scope)
            if index_type.kind is not ScalarKind.INT:
                raise TypeError_("array indices must be int",
                                 index.location)
        element = base_type.element_type()
        if element.is_sync_object and not allow_sync:
            raise TypeError_("flag/lock elements may only appear in "
                             "post/wait/lock/unlock", expr.location)
        return element

    def _infer_binary(self, expr: ast.Binary, scope: Scope,
                      allow_sync: bool) -> Type:
        left = self._check_expression(expr.left, scope)
        right = self._check_expression(expr.right, scope)
        if not left.is_numeric or not right.is_numeric:
            raise TypeError_(f"operator {expr.op.value!r} requires numeric "
                             "operands", expr.location)
        if expr.op in _INT_RESULT_OPS:
            return INT
        if expr.op is ast.BinaryOp.MOD:
            if left.kind is not ScalarKind.INT or right.kind is not ScalarKind.INT:
                raise TypeError_("'%' requires int operands", expr.location)
            return INT
        return arithmetic_result(left, right)

    def _infer_unary(self, expr: ast.Unary, scope: Scope,
                     allow_sync: bool) -> Type:
        operand = self._check_expression(expr.operand, scope)
        if not operand.is_numeric:
            raise TypeError_(f"operator {expr.op.value!r} requires a numeric "
                             "operand", expr.location)
        if expr.op is ast.UnaryOp.NOT:
            return INT
        return operand

    def _infer_call(self, expr: ast.Call, scope: Scope,
                    allow_sync: bool) -> Type:
        arity = INTRINSICS.get(expr.name)
        if arity is not None:
            if len(expr.args) != arity:
                raise TypeError_(
                    f"intrinsic {expr.name!r} expects {arity} argument(s)",
                    expr.location,
                )
            arg_types = [self._check_expression(arg, scope) for arg in expr.args]
            for arg_type, arg in zip(arg_types, expr.args):
                if not arg_type.is_numeric:
                    raise TypeError_(
                        f"intrinsic {expr.name!r} requires numeric arguments",
                        arg.location,
                    )
            if expr.name in _DOUBLE_RESULT_INTRINSICS:
                return DOUBLE
            if expr.name in _INT_RESULT_INTRINSICS:
                return INT
            result = arg_types[0]
            for arg_type in arg_types[1:]:
                result = arithmetic_result(result, arg_type)
            return result
        func = self._functions.get(expr.name)
        if func is None:
            raise TypeError_(f"call to undeclared function {expr.name!r}",
                             expr.location)
        if len(expr.args) != len(func.params):
            raise TypeError_(
                f"{expr.name!r} expects {len(func.params)} argument(s), "
                f"got {len(expr.args)}",
                expr.location,
            )
        for arg, param in zip(expr.args, func.params):
            arg_type = self._check_expression(arg, scope)
            if not assignable(param.param_type, arg_type):
                raise TypeError_(
                    f"argument {param.name!r} of {expr.name!r}: cannot pass "
                    f"{arg_type} as {param.param_type}",
                    arg.location,
                )
        return func.return_type


#: Comparisons and logical operators produce int whatever their operands.
_INT_RESULT_OPS = frozenset({
    ast.BinaryOp.EQ, ast.BinaryOp.NE, ast.BinaryOp.LT, ast.BinaryOp.LE,
    ast.BinaryOp.GT, ast.BinaryOp.GE, ast.BinaryOp.AND, ast.BinaryOp.OR,
})


#: Expression node type -> its ``Checker`` inference method.
_INFER: Dict[type, Callable[..., Type]] = {
    ast.IntLiteral: lambda self, expr, scope, allow_sync: INT,
    ast.FloatLiteral: lambda self, expr, scope, allow_sync: DOUBLE,
    ast.MyProc: lambda self, expr, scope, allow_sync: INT,
    ast.NumProcs: lambda self, expr, scope, allow_sync: INT,
    ast.VarRef: Checker._infer_var,
    ast.IndexExpr: Checker._infer_index,
    ast.Binary: Checker._infer_binary,
    ast.Unary: Checker._infer_unary,
    ast.Call: Checker._infer_call,
}


def check(program: ast.Program) -> CheckedProgram:
    """Type-checks a parsed program; raises :class:`TypeError_` on failure."""
    return Checker(program).check()
