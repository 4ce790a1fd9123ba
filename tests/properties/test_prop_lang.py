"""Property tests for the frontend (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import LexError, ParseError, ReproError, TypeError_
from repro.lang import parse, parse_and_check, tokenize
from tests.lang.printer import print_program
from repro.lang.tokens import TokenKind

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in {
        "shared", "int", "double", "void", "if", "else", "while",
        "for", "return", "barrier", "post", "wait", "lock", "unlock",
        "dist", "block", "cyclic", "min", "max", "abs", "sqrt",
        "floor", "exp", "sin", "cos", "flag_t", "lock_t", "main",
    }
)


class TestLexerTotality:
    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_lexer_never_crashes_unexpectedly(self, text):
        """Any input either tokenizes or raises LexError — never
        anything else."""
        try:
            tokens = tokenize(text)
        except LexError:
            return
        assert tokens[-1].kind is TokenKind.EOF

    @given(st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=200, deadline=None)
    def test_integer_roundtrip(self, value):
        token = tokenize(str(value))[0]
        assert token.kind is TokenKind.INT_LITERAL
        assert token.value == value

    @given(identifiers)
    @settings(max_examples=200, deadline=None)
    def test_identifier_roundtrip(self, name):
        token = tokenize(name)[0]
        assert token.kind is TokenKind.IDENT
        assert token.value == name


class TestParserTotality:
    @given(st.text(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_parser_only_raises_source_errors(self, text):
        try:
            parse(text)
        except (LexError, ParseError):
            pass  # rejected with a diagnostic: fine
        # Anything else propagates and fails the test.

    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_checker_only_raises_repro_errors(self, text):
        try:
            parse_and_check(text)
        except ReproError:
            pass


@st.composite
def expression_texts(draw):
    """Random well-formed expressions over ints and two variables."""
    depth = draw(st.integers(min_value=0, max_value=3))

    def gen(d):
        if d == 0:
            choice = draw(st.integers(min_value=0, max_value=3))
            if choice == 0:
                return str(draw(st.integers(min_value=0, max_value=99)))
            if choice == 1:
                return "a"
            if choice == 2:
                return "b"
            return "MYPROC"
        op = draw(st.sampled_from(
            ["+", "-", "*", "/", "%", "<", "<=", "==", "&&", "||"]
        ))
        left = gen(d - 1)
        right = gen(d - 1)
        if draw(st.booleans()):
            return f"({left} {op} {right})"
        return f"{left} {op} {right}"

    return gen(depth)


class TestPrinterRoundtripProperty:
    @given(expression_texts())
    @settings(max_examples=300, deadline=None)
    def test_random_expressions_roundtrip(self, expr_text):
        from tests.lang.test_printer import ast_shape

        source = (
            f"void main() {{ int a = 1; int b = 2; int x = {expr_text};"
            f" }}"
        )
        original = parse(source)
        printed = print_program(original)
        assert ast_shape(parse(printed)) == ast_shape(original), printed
