"""AST pretty-printer tests: rendered source must reparse identically."""

import pytest

from repro.lang import ast, parse, parse_and_check
from tests.lang.printer import print_expr, print_program
from tests.helpers import FIGURE_1, FIGURE_5


def ast_shape(node, depth=0):
    """A structural fingerprint ignoring locations and types."""
    if isinstance(node, ast.Program):
        return (
            "program",
            tuple(ast_shape(d) for d in node.shared_decls),
            tuple(ast_shape(f) for f in node.functions),
        )
    if isinstance(node, ast.SharedDecl):
        return ("shared", node.name, str(node.var_type),
                node.distribution.value)
    if isinstance(node, ast.FuncDecl):
        return (
            "func",
            node.name,
            str(node.return_type),
            tuple((p.name, str(p.param_type)) for p in node.params),
            ast_shape(node.body),
        )
    if isinstance(node, ast.Block):
        return ("block", tuple(ast_shape(s) for s in node.statements))
    if isinstance(node, ast.VarDecl):
        return ("decl", node.name, str(node.var_type),
                ast_shape(node.init) if node.init else None)
    if isinstance(node, ast.Assign):
        return ("assign", ast_shape(node.target), ast_shape(node.value))
    if isinstance(node, ast.If):
        return ("if", ast_shape(node.condition),
                ast_shape(node.then_body),
                ast_shape(node.else_body) if node.else_body else None)
    if isinstance(node, ast.While):
        return ("while", ast_shape(node.condition), ast_shape(node.body))
    if isinstance(node, ast.For):
        return (
            "for",
            ast_shape(node.init) if node.init else None,
            ast_shape(node.condition) if node.condition else None,
            ast_shape(node.step) if node.step else None,
            ast_shape(node.body),
        )
    if isinstance(node, ast.Barrier):
        return ("barrier",)
    if isinstance(node, (ast.Post, ast.Wait)):
        return (type(node).__name__.lower(), ast_shape(node.flag))
    if isinstance(node, (ast.LockStmt, ast.UnlockStmt)):
        return (type(node).__name__.lower(), ast_shape(node.lock))
    if isinstance(node, ast.ExprStmt):
        return ("expr", ast_shape(node.expr))
    if isinstance(node, ast.Return):
        return ("return", ast_shape(node.value) if node.value else None)
    if isinstance(node, ast.IntLiteral):
        return ("int", node.value)
    if isinstance(node, ast.FloatLiteral):
        return ("float", node.value)
    if isinstance(node, ast.MyProc):
        return ("myproc",)
    if isinstance(node, ast.NumProcs):
        return ("procs",)
    if isinstance(node, ast.VarRef):
        return ("var", node.name)
    if isinstance(node, ast.IndexExpr):
        return ("index", node.base.name,
                tuple(ast_shape(i) for i in node.indices))
    if isinstance(node, ast.Binary):
        return ("bin", node.op.value, ast_shape(node.left),
                ast_shape(node.right))
    if isinstance(node, ast.Unary):
        return ("un", node.op.value, ast_shape(node.operand))
    if isinstance(node, ast.Call):
        return ("call", node.name,
                tuple(ast_shape(a) for a in node.args))
    raise TypeError(type(node).__name__)


ROUNDTRIP_SOURCES = [
    FIGURE_1,
    FIGURE_5,
    """
    shared double G[4][8] dist(cyclic);
    shared lock_t l;
    double helper(int a, double b) { return a * b + 1.0; }
    void main() {
      double acc = 0.0;
      for (int i = 0; i < 4; i = i + 1) {
        if (i % 2 == 0) { acc = acc + helper(i, 2.5); }
        else { acc = acc - G[i][0]; }
      }
      while (acc > 10.0) { acc = acc / 2.0; }
      lock(l);
      G[0][0] = acc;
      unlock(l);
      barrier();
    }
    """,
    """
    shared flag_t f[8];
    void main() {
      int x = -3;
      int y = !(x < 0) || x > -5 && 1 != 0;
      post(f[(MYPROC + 1) % PROCS]);
      wait(f[MYPROC]);
    }
    """,
]


class TestRoundtrip:
    @pytest.mark.parametrize("index", range(len(ROUNDTRIP_SOURCES)))
    def test_parse_print_parse(self, index):
        source = ROUNDTRIP_SOURCES[index]
        original = parse(source)
        printed = print_program(original)
        reparsed = parse(printed)
        assert ast_shape(reparsed) == ast_shape(original), printed

    @pytest.mark.parametrize("index", range(len(ROUNDTRIP_SOURCES)))
    def test_printed_source_typechecks(self, index):
        printed = print_program(parse(ROUNDTRIP_SOURCES[index]))
        parse_and_check(printed)

    def test_generated_programs_roundtrip(self):
        from repro.fuzz.progen import generate

        for seed in range(6):
            source = generate(seed, procs=4, num_phases=3)
            original = parse(source)
            printed = print_program(original)
            assert ast_shape(parse(printed)) == ast_shape(original)


class TestExprPrinting:
    def expr(self, text):
        program = parse(f"void main() {{ x = {text}; }}")
        return program.function("main").body.statements[0].value

    @pytest.mark.parametrize(
        "text",
        [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "a - b - c",
            "a - (b - c)",
            "-x * 2",
            "!(a && b) || c",
            "A[i + 1]",
            "min(a, b + 1)",
            "(MYPROC + 1) % PROCS",
            "a / b / c",
            "a / (b / c)",
        ],
    )
    def test_minimal_parens_preserve_shape(self, text):
        from tests.lang.test_printer import ast_shape as shape

        original = self.expr(text)
        printed = print_expr(original)
        reparsed = self.expr(printed)
        assert shape(reparsed) == shape(original), printed

    def test_float_renders_reparseably(self):
        assert print_expr(self.expr("2.5")) == "2.5"
        assert "." in print_expr(self.expr("1e3")) or "e" in print_expr(
            self.expr("1e3")
        )
