"""AST pretty-printer: renders a program back to MiniSplit source.

The parser's round-trip oracle (``parse(print(parse(s)))`` must equal
``parse(s)`` structurally), used by ``tests/lang/test_printer.py`` and
the property tests.
"""

from __future__ import annotations

from typing import List

from repro.lang import ast
from repro.lang.types import Distribution, Type

#: Binary operator precedence, mirroring the parser's table.
_PRECEDENCE = {
    ast.BinaryOp.OR: 1,
    ast.BinaryOp.AND: 2,
    ast.BinaryOp.EQ: 3,
    ast.BinaryOp.NE: 3,
    ast.BinaryOp.LT: 4,
    ast.BinaryOp.LE: 4,
    ast.BinaryOp.GT: 4,
    ast.BinaryOp.GE: 4,
    ast.BinaryOp.ADD: 5,
    ast.BinaryOp.SUB: 5,
    ast.BinaryOp.MUL: 6,
    ast.BinaryOp.DIV: 6,
    ast.BinaryOp.MOD: 6,
}


def _render_type(t: Type) -> str:
    return t.kind.value


def _dims(t: Type) -> str:
    return "".join(f"[{d}]" for d in t.dims)


def print_expr(expr: ast.Expr, parent_prec: int = 0) -> str:
    """Renders an expression, parenthesizing only where needed."""
    if isinstance(expr, ast.IntLiteral):
        return str(expr.value)
    if isinstance(expr, ast.FloatLiteral):
        text = repr(expr.value)
        return text if ("." in text or "e" in text) else text + ".0"
    if isinstance(expr, ast.MyProc):
        return "MYPROC"
    if isinstance(expr, ast.NumProcs):
        return "PROCS"
    if isinstance(expr, ast.VarRef):
        return expr.name
    if isinstance(expr, ast.IndexExpr):
        indices = "".join(f"[{print_expr(i)}]" for i in expr.indices)
        return f"{expr.base.name}{indices}"
    if isinstance(expr, ast.Unary):
        operand = print_expr(expr.operand, 10)
        return f"{expr.op.value}{operand}"
    if isinstance(expr, ast.Binary):
        prec = _PRECEDENCE[expr.op]
        left = print_expr(expr.left, prec)
        right = print_expr(expr.right, prec + 1)  # left-associative
        text = f"{left} {expr.op.value} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, ast.Call):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    raise TypeError(f"cannot print {type(expr).__name__}")


class _Printer:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def emit(self, text: str) -> None:
        self.lines.append("  " * self.depth + text)

    def statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.emit("{")
            self.depth += 1
            for inner in stmt.statements:
                self.statement(inner)
            self.depth -= 1
            self.emit("}")
        elif isinstance(stmt, ast.VarDecl):
            text = (
                f"{_render_type(stmt.var_type)} {stmt.name}"
                f"{_dims(stmt.var_type)}"
            )
            if stmt.init is not None:
                text += f" = {print_expr(stmt.init)}"
            self.emit(text + ";")
        elif isinstance(stmt, ast.Assign):
            self.emit(
                f"{print_expr(stmt.target)} = {print_expr(stmt.value)};"
            )
        elif isinstance(stmt, ast.If):
            self.emit(f"if ({print_expr(stmt.condition)})")
            self.statement(stmt.then_body)
            if stmt.else_body is not None:
                self.emit("else")
                self.statement(stmt.else_body)
        elif isinstance(stmt, ast.While):
            self.emit(f"while ({print_expr(stmt.condition)})")
            self.statement(stmt.body)
        elif isinstance(stmt, ast.For):
            init = self._inline_statement(stmt.init)
            cond = (
                print_expr(stmt.condition)
                if stmt.condition is not None
                else ""
            )
            step = self._inline_statement(stmt.step, semi=False)
            self.emit(f"for ({init} {cond}; {step})")
            self.statement(stmt.body)
        elif isinstance(stmt, ast.Barrier):
            self.emit("barrier();")
        elif isinstance(stmt, ast.Post):
            self.emit(f"post({print_expr(stmt.flag)});")
        elif isinstance(stmt, ast.Wait):
            self.emit(f"wait({print_expr(stmt.flag)});")
        elif isinstance(stmt, ast.LockStmt):
            self.emit(f"lock({print_expr(stmt.lock)});")
        elif isinstance(stmt, ast.UnlockStmt):
            self.emit(f"unlock({print_expr(stmt.lock)});")
        elif isinstance(stmt, ast.ExprStmt):
            self.emit(f"{print_expr(stmt.expr)};")
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.emit(f"return {print_expr(stmt.value)};")
            else:
                self.emit("return;")
        else:
            raise TypeError(f"cannot print {type(stmt).__name__}")

    def _inline_statement(self, stmt, semi: bool = True) -> str:
        if stmt is None:
            return ";" if semi else ""
        if isinstance(stmt, ast.VarDecl):
            text = f"{_render_type(stmt.var_type)} {stmt.name}"
            if stmt.init is not None:
                text += f" = {print_expr(stmt.init)}"
        elif isinstance(stmt, ast.Assign):
            text = f"{print_expr(stmt.target)} = {print_expr(stmt.value)}"
        else:
            raise TypeError(
                f"cannot inline {type(stmt).__name__} in a for header"
            )
        return text + (";" if semi else "")


def print_program(program: ast.Program) -> str:
    """Renders a whole program as (re-parseable) MiniSplit source."""
    printer = _Printer()
    for decl in program.shared_decls:
        dist = ""
        if decl.var_type.is_array and (
            decl.distribution is Distribution.CYCLIC
        ):
            dist = " dist(cyclic)"
        printer.emit(
            f"shared {_render_type(decl.var_type)} {decl.name}"
            f"{_dims(decl.var_type)}{dist};"
        )
    for func in program.functions:
        params = ", ".join(
            f"{_render_type(p.param_type)} {p.name}" for p in func.params
        )
        printer.emit(f"{_render_type(func.return_type)} "
                     f"{func.name}({params})")
        printer.statement(func.body)
    return "\n".join(printer.lines) + "\n"
