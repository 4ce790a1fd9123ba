"""Lexer for MiniSplit: one compiled master pattern.

C-style ``//`` line comments and ``/* ... */`` block comments, decimal
integer and floating-point literals, and the operator set listed in
:mod:`repro.lang.tokens`.  Every character class is explicit ASCII —
``\\d``, ``\\w`` and ``\\s`` would admit '²', 'é' and form feeds, which
``int()`` and the grammar reject.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexError, SourceLocation
from repro.lang.tokens import KEYWORDS, Token, TokenKind

#: Spelling -> kind for punctuation.  Keyword spellings and the names of
#: the literal/identifier/EOF categories all start with a letter; every
#: other member's value *is* its spelling.
_PUNCTUATION = {k.value: k for k in TokenKind if not k.value[0].isalpha()}

_LONGEST_FIRST = "|".join(
    re.escape(text) for text in sorted(_PUNCTUATION, key=len, reverse=True)
)

# A float needs digits after its dot or a complete exponent; otherwise
# the integer prefix stands alone ("1." is 1 then a stray dot, "1e+" is
# 1, e, +).  An unterminated "/*" must be tried before "/" and after
# the closed comment; ``bad`` catches whatever nothing else matched.
_MASTER = re.compile(
    rf"""
      (?P<trivia> [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )
    | (?P<open_comment> /\* )
    | (?P<float> [0-9]+ (?: \.[0-9]+ (?: [eE][+-]?[0-9]+ )?
                          | [eE][+-]?[0-9]+ ) )
    | (?P<int> [0-9]+ )
    | (?P<word> [A-Za-z_][A-Za-z_0-9]* )
    | (?P<punct> {_LONGEST_FIRST} )
    | (?P<bad> . )
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Lexes ``source`` into a list of tokens ending with an EOF token."""
    # Only "\n" starts a line; a tab or "\r" advances the column by one.
    # Newlines occur only in trivia, so a running count keeps columns
    # exact with one ``count`` per trivia match.
    line, line_start = 1, 0
    tokens: List[Token] = []
    append = tokens.append
    for match in _MASTER.finditer(source):
        group = match.lastgroup
        text = match.group()
        if group == "trivia":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = source.rindex("\n", 0, match.end()) + 1
            continue
        start = SourceLocation(line, match.start() - line_start + 1, filename)
        if group == "word":
            kind = KEYWORDS.get(text, TokenKind.IDENT)
            append(Token(kind, start, text if kind is TokenKind.IDENT else None))
        elif group == "punct":
            append(Token(_PUNCTUATION[text], start))
        elif group == "int":
            append(Token(TokenKind.INT_LITERAL, start, int(text)))
        elif group == "float":
            append(Token(TokenKind.FLOAT_LITERAL, start, float(text)))
        elif group == "open_comment":
            raise LexError("unterminated block comment", start)
        else:
            raise LexError(f"unexpected character {text!r}", start)
    append(Token(TokenKind.EOF,
                 SourceLocation(line, len(source) - line_start + 1, filename)))
    return tokens
