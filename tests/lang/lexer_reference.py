"""The original character-at-a-time scanner, kept as the executable
specification.

A single-pass scanner with one ``_peek``/``_advance`` per character:
C-style ``//`` and ``/* ... */`` comments, decimal integer and
floating-point literals, and the operator set of
:mod:`repro.lang.tokens`.  The production lexer
(``repro.lang.lexer.tokenize``, one compiled pattern) must match it
token for token and error for error; ``test_lexer_equiv.py`` asserts
that on the kernels, generated programs, the ladder and hostile strings.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.errors import LexError, SourceLocation
from repro.lang.tokens import KEYWORDS, Token, TokenKind


def _is_digit(char: str) -> bool:
    """ASCII digits only — ``str.isdigit`` accepts Unicode digits like
    '²' that ``int()`` rejects."""
    return "0" <= char <= "9"


def _is_ident_start(char: str) -> bool:
    return ("a" <= char <= "z") or ("A" <= char <= "Z") or char == "_"


def _is_ident_char(char: str) -> bool:
    return _is_ident_start(char) or _is_digit(char)

_TWO_CHAR_OPERATORS = {
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
}

_ONE_CHAR_OPERATORS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.NOT,
}


class Lexer:
    """Scans MiniSplit source text into a token stream."""

    def __init__(self, source: str, filename: str = "<input>"):
        self._source = source
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._column = 1

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._column, self._filename)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._source):
            return ""
        return self._source[index]

    def _advance(self) -> str:
        char = self._source[self._pos]
        self._pos += 1
        if char == "\n":
            self._line += 1
            self._column = 1
        else:
            self._column += 1
        return char

    def _skip_trivia(self) -> None:
        """Skips whitespace and both comment styles."""
        while self._pos < len(self._source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance()
                self._advance()
                while True:
                    if self._pos >= len(self._source):
                        raise LexError("unterminated block comment", start)
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance()
                        self._advance()
                        break
                    self._advance()
            else:
                return

    def _lex_number(self) -> Token:
        start = self._location()
        digits: List[str] = []
        while _is_digit(self._peek()):
            digits.append(self._advance())
        is_float = False
        if self._peek() == "." and _is_digit(self._peek(1)):
            is_float = True
            digits.append(self._advance())
            while _is_digit(self._peek()):
                digits.append(self._advance())
        if self._peek() in "eE" and (
            _is_digit(self._peek(1))
            or (self._peek(1) in "+-" and _is_digit(self._peek(2)))
        ):
            is_float = True
            digits.append(self._advance())
            if self._peek() in "+-":
                digits.append(self._advance())
            while _is_digit(self._peek()):
                digits.append(self._advance())
        text = "".join(digits)
        if is_float:
            return Token(TokenKind.FLOAT_LITERAL, start, float(text))
        return Token(TokenKind.INT_LITERAL, start, int(text))

    def _lex_word(self) -> Token:
        start = self._location()
        chars: List[str] = []
        while _is_ident_char(self._peek()):
            chars.append(self._advance())
        word = "".join(chars)
        kind = KEYWORDS.get(word)
        if kind is not None:
            return Token(kind, start)
        return Token(TokenKind.IDENT, start, word)

    def next_token(self) -> Token:
        """Returns the next token, or an EOF token at end of input."""
        self._skip_trivia()
        if self._pos >= len(self._source):
            return Token(TokenKind.EOF, self._location())
        char = self._peek()
        if _is_digit(char):
            return self._lex_number()
        if _is_ident_start(char):
            return self._lex_word()
        start = self._location()
        two = char + self._peek(1)
        if two in _TWO_CHAR_OPERATORS:
            self._advance()
            self._advance()
            return Token(_TWO_CHAR_OPERATORS[two], start)
        if char in _ONE_CHAR_OPERATORS:
            self._advance()
            return Token(_ONE_CHAR_OPERATORS[char], start)
        raise LexError(f"unexpected character {char!r}", start)

    def tokens(self) -> Iterator[Token]:
        """Yields all tokens including the final EOF token."""
        while True:
            token = self.next_token()
            yield token
            if token.kind is TokenKind.EOF:
                return


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Convenience wrapper: lex ``source`` into a list of tokens."""
    return list(Lexer(source, filename).tokens())
