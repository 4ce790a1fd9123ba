"""Token definitions for the MiniSplit language.

MiniSplit is the source language of the paper's section 2: an explicitly
parallel SPMD language in the style of (a subset of) Split-C.  All shared
memory accesses in the *source* are blocking; split-phase operations only
appear in the compiler's output.  The token set is deliberately small — a
C-like expression language plus the parallel declarations and the four
synchronization statement forms the paper analyzes (``barrier``, ``post``/
``wait``, ``lock``/``unlock``).
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from repro.errors import SourceLocation


class TokenKind(enum.Enum):
    """Every distinct lexical category recognized by the lexer."""

    __hash__ = object.__hash__  # identity: see ``ir.instructions.Opcode``

    # Literals and identifiers
    INT_LITERAL = "int_literal"
    FLOAT_LITERAL = "float_literal"
    IDENT = "ident"

    # Keywords
    KW_SHARED = "shared"
    KW_INT = "int"
    KW_DOUBLE = "double"
    KW_VOID = "void"
    KW_FLAG = "flag_t"
    KW_LOCK = "lock_t"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_RETURN = "return"
    KW_BARRIER = "barrier"
    KW_POST = "post"
    KW_WAIT = "wait"
    KW_LOCK_STMT = "lock"
    KW_UNLOCK = "unlock"
    KW_MYPROC = "MYPROC"
    KW_PROCS = "PROCS"
    KW_DIST = "dist"
    KW_BLOCK = "block"
    KW_CYCLIC = "cyclic"

    # Punctuation / operators
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"

    EOF = "eof"


#: Map from keyword spelling to its token kind.  ``MYPROC`` and ``PROCS``
#: are lexed as keywords because they are builtin nullary expressions with
#: special meaning to the analyses (processor identity drives the conflict
#: analysis of distributed array indices).
KEYWORDS = {k.value: k for k in TokenKind if k.name.startswith("KW_")}


class Token:
    """A single lexeme with its source location.

    ``value`` carries the decoded payload for literals (``int`` or
    ``float``) and the spelling for identifiers; it is ``None`` for
    punctuation and keywords.  A plain slots class, immutable by
    convention, with a frozen dataclass's ``==``, ``hash`` and ``repr``.
    """

    __slots__ = ("kind", "location", "value")

    def __init__(self, kind: TokenKind, location: SourceLocation,
                 value: Optional[Union[int, float, str]] = None):
        self.kind = kind
        self.location = location
        self.value = value

    def __eq__(self, other: object) -> bool:
        if type(other) is not Token:
            return NotImplemented
        return (self.kind, self.location, self.value) == (
            other.kind, other.location, other.value)

    def __hash__(self) -> int:
        return hash((self.kind, self.location, self.value))

    def __repr__(self) -> str:
        return (f"Token(kind={self.kind!r}, location={self.location!r}, "
                f"value={self.value!r})")

    def __reduce__(self):
        return Token, (self.kind, self.location, self.value)

    @property
    def spelling(self) -> str:
        """Human-readable spelling, used in diagnostics."""
        if self.value is not None:
            return str(self.value)
        return self.kind.value

    def __str__(self) -> str:
        return f"{self.kind.name}({self.spelling})@{self.location}"
