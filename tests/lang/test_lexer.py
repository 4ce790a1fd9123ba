"""Lexer unit tests."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        assert kinds("") == [TokenKind.EOF]

    def test_whitespace_only(self):
        assert kinds("  \t\n  ") == [TokenKind.EOF]

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.INT_LITERAL
        assert tokens[0].value == 42

    def test_zero(self):
        assert tokenize("0")[0].value == 0

    def test_float_literal(self):
        tokens = tokenize("3.25")
        assert tokens[0].kind is TokenKind.FLOAT_LITERAL
        assert tokens[0].value == 3.25

    def test_float_with_exponent(self):
        assert tokenize("1.5e3")[0].value == 1500.0

    def test_float_with_negative_exponent(self):
        assert tokenize("2e-2")[0].value == pytest.approx(0.02)

    def test_integer_then_member_like_dot_is_error(self):
        # "1." without digits after the dot: the dot is unexpected.
        with pytest.raises(LexError):
            tokenize("1 .")
            tokenize(".")

    def test_lone_dot_is_error(self):
        # The call above never reaches its second line.
        with pytest.raises(LexError, match=r"unexpected character '\.'"):
            tokenize(".")

    def test_identifier(self):
        tokens = tokenize("foo_bar2")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "foo_bar2"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("_x")[0].value == "_x"


class TestKeywords:
    @pytest.mark.parametrize(
        "word,kind",
        [
            ("shared", TokenKind.KW_SHARED),
            ("int", TokenKind.KW_INT),
            ("double", TokenKind.KW_DOUBLE),
            ("void", TokenKind.KW_VOID),
            ("flag_t", TokenKind.KW_FLAG),
            ("lock_t", TokenKind.KW_LOCK),
            ("if", TokenKind.KW_IF),
            ("else", TokenKind.KW_ELSE),
            ("while", TokenKind.KW_WHILE),
            ("for", TokenKind.KW_FOR),
            ("return", TokenKind.KW_RETURN),
            ("barrier", TokenKind.KW_BARRIER),
            ("post", TokenKind.KW_POST),
            ("wait", TokenKind.KW_WAIT),
            ("lock", TokenKind.KW_LOCK_STMT),
            ("unlock", TokenKind.KW_UNLOCK),
            ("MYPROC", TokenKind.KW_MYPROC),
            ("PROCS", TokenKind.KW_PROCS),
            ("dist", TokenKind.KW_DIST),
            ("block", TokenKind.KW_BLOCK),
            ("cyclic", TokenKind.KW_CYCLIC),
        ],
    )
    def test_keyword(self, word, kind):
        assert kinds(word)[0] is kind

    def test_keyword_prefix_is_identifier(self):
        tokens = tokenize("iffy")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "iffy"

    def test_case_sensitive(self):
        assert tokenize("If")[0].kind is TokenKind.IDENT


class TestOperators:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("==", TokenKind.EQ),
            ("!=", TokenKind.NE),
            ("<=", TokenKind.LE),
            (">=", TokenKind.GE),
            ("&&", TokenKind.AND),
            ("||", TokenKind.OR),
            ("=", TokenKind.ASSIGN),
            ("<", TokenKind.LT),
            (">", TokenKind.GT),
            ("!", TokenKind.NOT),
            ("+", TokenKind.PLUS),
            ("-", TokenKind.MINUS),
            ("*", TokenKind.STAR),
            ("/", TokenKind.SLASH),
            ("%", TokenKind.PERCENT),
            (";", TokenKind.SEMI),
            (",", TokenKind.COMMA),
            ("(", TokenKind.LPAREN),
            (")", TokenKind.RPAREN),
            ("{", TokenKind.LBRACE),
            ("}", TokenKind.RBRACE),
            ("[", TokenKind.LBRACKET),
            ("]", TokenKind.RBRACKET),
        ],
    )
    def test_operator(self, text, kind):
        assert kinds(text)[0] is kind

    def test_two_char_operator_beats_one_char(self):
        assert kinds("<=")[:1] == [TokenKind.LE]

    def test_adjacent_operators(self):
        assert kinds("a<=b")[:3] == [
            TokenKind.IDENT, TokenKind.LE, TokenKind.IDENT
        ]

    def test_equality_vs_assignment(self):
        assert kinds("a == b = c")[:5] == [
            TokenKind.IDENT,
            TokenKind.EQ,
            TokenKind.IDENT,
            TokenKind.ASSIGN,
            TokenKind.IDENT,
        ]


class TestComments:
    def test_line_comment(self):
        assert kinds("// nothing here\n42")[:1] == [TokenKind.INT_LITERAL]

    def test_line_comment_at_eof(self):
        assert kinds("42 // trailing") == [
            TokenKind.INT_LITERAL, TokenKind.EOF
        ]

    def test_block_comment(self):
        assert kinds("/* a\nb */ 7")[:1] == [TokenKind.INT_LITERAL]

    def test_block_comment_with_stars(self):
        assert kinds("/* ** * */ x")[:1] == [TokenKind.IDENT]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_comment_between_tokens(self):
        assert kinds("a /* mid */ b")[:2] == [
            TokenKind.IDENT, TokenKind.IDENT
        ]


class TestLocations:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].location.line, tokens[0].location.column) == (1, 1)
        assert (tokens[1].location.line, tokens[1].location.column) == (2, 3)

    def test_filename_in_location(self):
        tokens = tokenize("x", filename="prog.ms")
        assert tokens[0].location.filename == "prog.ms"
        assert "prog.ms" in str(tokens[0].location)

    def test_columns_after_tab(self):
        tokens = tokenize("\tx")
        assert tokens[0].location.column == 2


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as exc:
            tokenize("a @ b")
        assert "@" in str(exc.value)

    def test_error_location_reported(self):
        with pytest.raises(LexError) as exc:
            tokenize("ab\n  $")
        assert exc.value.location.line == 2


class TestWholeProgram:
    def test_small_program_token_stream(self):
        source = "shared int X; void main() { X = 1 + 2; }"
        sequence = kinds(source)
        assert sequence[0] is TokenKind.KW_SHARED
        assert sequence[-1] is TokenKind.EOF
        assert TokenKind.ASSIGN in sequence
        assert sequence.count(TokenKind.SEMI) == 2
