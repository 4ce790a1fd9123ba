"""Recursive-descent parser for MiniSplit.

Expressions are parsed with precedence climbing; statements and
declarations with plain recursive descent.  The parser produces an
untyped AST — the checker (:mod:`repro.lang.checker`) fills in types.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from repro.lang.types import Distribution, ScalarKind, Type

#: Binary operator precedence (higher binds tighter).  Mirrors C.
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

_TOKEN_TO_BINOP = {
    TokenKind.OR: ast.BinaryOp.OR,
    TokenKind.AND: ast.BinaryOp.AND,
    TokenKind.EQ: ast.BinaryOp.EQ,
    TokenKind.NE: ast.BinaryOp.NE,
    TokenKind.LT: ast.BinaryOp.LT,
    TokenKind.LE: ast.BinaryOp.LE,
    TokenKind.GT: ast.BinaryOp.GT,
    TokenKind.GE: ast.BinaryOp.GE,
    TokenKind.PLUS: ast.BinaryOp.ADD,
    TokenKind.MINUS: ast.BinaryOp.SUB,
    TokenKind.STAR: ast.BinaryOp.MUL,
    TokenKind.SLASH: ast.BinaryOp.DIV,
    TokenKind.PERCENT: ast.BinaryOp.MOD,
}

_TYPE_KEYWORDS = {
    TokenKind.KW_INT: ScalarKind.INT,
    TokenKind.KW_DOUBLE: ScalarKind.DOUBLE,
    TokenKind.KW_VOID: ScalarKind.VOID,
    TokenKind.KW_FLAG: ScalarKind.FLAG,
    TokenKind.KW_LOCK: ScalarKind.LOCK,
}


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token stream helpers ------------------------------------------------

    def _peek(self) -> Token:
        # In range: the list ends in EOF, which ``_advance`` never passes.
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._tokens[self._pos].kind is kind

    def _match(self, kind: TokenKind) -> Optional[Token]:
        token = self._tokens[self._pos]
        if token.kind is kind:
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r} {context}, found {token.spelling!r}",
                token.location,
            )
        return self._advance()

    # -- top level -----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self._check(TokenKind.EOF):
            if self._check(TokenKind.KW_SHARED):
                program.shared_decls.append(self._parse_shared_decl())
            else:
                program.functions.append(self._parse_function())
        return program

    def _parse_scalar_kind(self, context: str) -> ScalarKind:
        token = self._peek()
        kind = _TYPE_KEYWORDS.get(token.kind)
        if kind is None:
            raise ParseError(
                f"expected a type {context}, found {token.spelling!r}",
                token.location,
            )
        self._advance()
        return kind

    def _parse_extents(self) -> List[int]:
        """Parses ``[N][M]...`` with compile-time integer extents."""
        extents: List[int] = []
        while self._check(TokenKind.LBRACKET):
            self._advance()
            token = self._expect(TokenKind.INT_LITERAL, "as array extent")
            extent = int(token.value)  # type: ignore[arg-type]
            if extent <= 0:
                raise ParseError("array extent must be positive", token.location)
            extents.append(extent)
            self._expect(TokenKind.RBRACKET, "after array extent")
        return extents

    def _parse_shared_decl(self) -> ast.SharedDecl:
        start = self._expect(TokenKind.KW_SHARED, "at shared declaration")
        kind = self._parse_scalar_kind("after 'shared'")
        if kind is ScalarKind.VOID:
            raise ParseError("shared variables cannot be void", start.location)
        name = self._expect(TokenKind.IDENT, "as shared variable name")
        extents = self._parse_extents()
        distribution = Distribution.BLOCK
        if self._match(TokenKind.KW_DIST):
            self._expect(TokenKind.LPAREN, "after 'dist'")
            token = self._peek()
            if self._match(TokenKind.KW_BLOCK):
                distribution = Distribution.BLOCK
            elif self._match(TokenKind.KW_CYCLIC):
                distribution = Distribution.CYCLIC
            else:
                raise ParseError(
                    "expected 'block' or 'cyclic' in dist(...)", token.location
                )
            self._expect(TokenKind.RPAREN, "after distribution kind")
        self._expect(TokenKind.SEMI, "after shared declaration")
        var_type = Type(kind, tuple(extents), shared=True, distribution=distribution)
        return ast.SharedDecl(
            location=start.location,
            name=str(name.value),
            var_type=var_type,
            distribution=distribution,
        )

    def _parse_function(self) -> ast.FuncDecl:
        start = self._peek()
        kind = self._parse_scalar_kind("at function declaration")
        name = self._expect(TokenKind.IDENT, "as function name")
        self._expect(TokenKind.LPAREN, "after function name")
        params: List[ast.Param] = []
        if not self._check(TokenKind.RPAREN):
            while True:
                param_start = self._peek()
                param_kind = self._parse_scalar_kind("as parameter type")
                if param_kind in (ScalarKind.VOID, ScalarKind.FLAG, ScalarKind.LOCK):
                    raise ParseError(
                        "parameters must be int or double", param_start.location
                    )
                param_name = self._expect(TokenKind.IDENT, "as parameter name")
                params.append(
                    ast.Param(
                        location=param_start.location,
                        name=str(param_name.value),
                        param_type=Type(param_kind),
                    )
                )
                if not self._match(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "after parameter list")
        body = self._parse_block()
        return ast.FuncDecl(
            location=start.location,
            name=str(name.value),
            return_type=Type(kind),
            params=params,
            body=body,
        )

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        start = self._expect(TokenKind.LBRACE, "at block start")
        statements: List[ast.Stmt] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise ParseError("unterminated block", start.location)
            statements.append(self._parse_statement())
        self._expect(TokenKind.RBRACE, "at block end")
        return ast.Block(location=start.location, statements=statements)

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        kind = token.kind
        if kind is TokenKind.LBRACE:
            return self._parse_block()
        if kind in _TYPE_KEYWORDS:
            return self._parse_var_decl()
        if kind is TokenKind.KW_IF:
            return self._parse_if()
        if kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if kind is TokenKind.KW_FOR:
            return self._parse_for()
        if kind is TokenKind.KW_BARRIER:
            self._advance()
            self._expect(TokenKind.LPAREN, "after 'barrier'")
            self._expect(TokenKind.RPAREN, "after 'barrier('")
            self._expect(TokenKind.SEMI, "after barrier()")
            return ast.Barrier(location=token.location)
        if kind in (
            TokenKind.KW_POST,
            TokenKind.KW_WAIT,
            TokenKind.KW_LOCK_STMT,
            TokenKind.KW_UNLOCK,
        ):
            return self._parse_sync_statement()
        if kind is TokenKind.KW_RETURN:
            self._advance()
            value = None
            if not self._check(TokenKind.SEMI):
                value = self._parse_expression()
            self._expect(TokenKind.SEMI, "after return")
            return ast.Return(location=token.location, value=value)
        return self._parse_simple_statement(require_semi=True)

    def _parse_sync_statement(self) -> ast.Stmt:
        token = self._advance()
        self._expect(TokenKind.LPAREN, f"after '{token.kind.value}'")
        operand = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after synchronization operand")
        self._expect(TokenKind.SEMI, "after synchronization statement")
        if token.kind is TokenKind.KW_POST:
            return ast.Post(location=token.location, flag=operand)
        if token.kind is TokenKind.KW_WAIT:
            return ast.Wait(location=token.location, flag=operand)
        if token.kind is TokenKind.KW_LOCK_STMT:
            return ast.LockStmt(location=token.location, lock=operand)
        return ast.UnlockStmt(location=token.location, lock=operand)

    def _parse_var_decl(self) -> ast.VarDecl:
        start = self._peek()
        kind = self._parse_scalar_kind("at declaration")
        if kind in (ScalarKind.VOID, ScalarKind.FLAG, ScalarKind.LOCK):
            raise ParseError(
                "local variables must be int or double "
                "(flags and locks must be shared)",
                start.location,
            )
        name = self._expect(TokenKind.IDENT, "as variable name")
        extents = self._parse_extents()
        init: Optional[ast.Expr] = None
        if self._match(TokenKind.ASSIGN):
            if extents:
                raise ParseError(
                    "array declarations cannot have initializers", start.location
                )
            init = self._parse_expression()
        self._expect(TokenKind.SEMI, "after declaration")
        return ast.VarDecl(
            location=start.location,
            name=str(name.value),
            var_type=Type(kind, tuple(extents)),
            init=init,
        )

    def _parse_simple_statement(self, require_semi: bool) -> ast.Stmt:
        """An assignment or a call-for-effect; used in for-headers too."""
        start = self._peek()
        expr = self._parse_expression()
        if self._match(TokenKind.ASSIGN):
            if not isinstance(expr, (ast.VarRef, ast.IndexExpr)):
                raise ParseError("assignment target must be a variable or element",
                                 start.location)
            value = self._parse_expression()
            stmt: ast.Stmt = ast.Assign(
                location=start.location, target=expr, value=value
            )
        else:
            if not isinstance(expr, ast.Call):
                raise ParseError(
                    "expression statements must be calls", start.location
                )
            stmt = ast.ExprStmt(location=start.location, expr=expr)
        if require_semi:
            self._expect(TokenKind.SEMI, "after statement")
        return stmt

    def _parse_if(self) -> ast.If:
        start = self._expect(TokenKind.KW_IF, "at if")
        self._expect(TokenKind.LPAREN, "after 'if'")
        condition = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after if condition")
        then_body = self._statement_as_block()
        else_body: Optional[ast.Block] = None
        if self._match(TokenKind.KW_ELSE):
            else_body = self._statement_as_block()
        return ast.If(
            location=start.location,
            condition=condition,
            then_body=then_body,
            else_body=else_body,
        )

    def _parse_while(self) -> ast.While:
        start = self._expect(TokenKind.KW_WHILE, "at while")
        self._expect(TokenKind.LPAREN, "after 'while'")
        condition = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after while condition")
        body = self._statement_as_block()
        return ast.While(location=start.location, condition=condition, body=body)

    def _parse_for(self) -> ast.For:
        start = self._expect(TokenKind.KW_FOR, "at for")
        self._expect(TokenKind.LPAREN, "after 'for'")
        init: Optional[ast.Stmt] = None
        if not self._check(TokenKind.SEMI):
            if self._peek().kind in _TYPE_KEYWORDS:
                init = self._parse_var_decl()  # consumes the ';'
            else:
                init = self._parse_simple_statement(require_semi=True)
        else:
            self._advance()
        condition: Optional[ast.Expr] = None
        if not self._check(TokenKind.SEMI):
            condition = self._parse_expression()
        self._expect(TokenKind.SEMI, "after for condition")
        step: Optional[ast.Stmt] = None
        if not self._check(TokenKind.RPAREN):
            step = self._parse_simple_statement(require_semi=False)
        self._expect(TokenKind.RPAREN, "after for header")
        body = self._statement_as_block()
        return ast.For(
            location=start.location,
            init=init,
            condition=condition,
            step=step,
            body=body,
        )

    def _statement_as_block(self) -> ast.Block:
        """Wraps a single-statement body in a Block for uniformity."""
        stmt = self._parse_statement()
        if isinstance(stmt, ast.Block):
            return stmt
        return ast.Block(location=stmt.location, statements=[stmt])

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self, min_precedence: int = 0) -> ast.Expr:
        left = self._parse_unary()
        while True:
            op = _TOKEN_TO_BINOP.get(self._peek().kind)
            if op is None or _PRECEDENCE[op] < min_precedence:
                return left
            op_token = self._advance()
            right = self._parse_expression(_PRECEDENCE[op] + 1)
            left = ast.Binary(
                location=op_token.location, op=op, left=left, right=right
            )

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.MINUS:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(
                location=token.location, op=ast.UnaryOp.NEG, operand=operand
            )
        if token.kind is TokenKind.NOT:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(
                location=token.location, op=ast.UnaryOp.NOT, operand=operand
            )
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        if self._check(TokenKind.LBRACKET):
            if not isinstance(expr, ast.VarRef):
                raise ParseError("only variables can be indexed", expr.location)
            indices: List[ast.Expr] = []
            while self._match(TokenKind.LBRACKET):
                indices.append(self._parse_expression())
                self._expect(TokenKind.RBRACKET, "after index")
            return ast.IndexExpr(
                location=expr.location, base=expr, indices=indices
            )
        return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._advance()
        kind = token.kind
        if kind is TokenKind.INT_LITERAL:
            return ast.IntLiteral(location=token.location, value=int(token.value))
        if kind is TokenKind.FLOAT_LITERAL:
            return ast.FloatLiteral(
                location=token.location, value=float(token.value)
            )
        if kind is TokenKind.KW_MYPROC:
            return ast.MyProc(location=token.location)
        if kind is TokenKind.KW_PROCS:
            return ast.NumProcs(location=token.location)
        if kind is TokenKind.LPAREN:
            expr = self._parse_expression()
            self._expect(TokenKind.RPAREN, "after parenthesized expression")
            return expr
        if kind is TokenKind.IDENT:
            name = str(token.value)
            if self._check(TokenKind.LPAREN):
                self._advance()
                args: List[ast.Expr] = []
                if not self._check(TokenKind.RPAREN):
                    while True:
                        args.append(self._parse_expression())
                        if not self._match(TokenKind.COMMA):
                            break
                self._expect(TokenKind.RPAREN, "after call arguments")
                return ast.Call(location=token.location, name=name, args=args)
            return ast.VarRef(location=token.location, name=name)
        raise ParseError(
            f"unexpected token {token.spelling!r} in expression", token.location
        )


def parse(source: str, filename: str = "<input>") -> ast.Program:
    """Parses MiniSplit source text into an (untyped) AST."""
    return Parser(tokenize(source, filename)).parse_program()
