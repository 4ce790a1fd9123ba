"""MiniSplit language frontend: lexer, parser, AST, types, checker.

MiniSplit is the Split-C-subset source language described in section 2
of the paper: an SPMD language with a global address space exposed only
through shared scalars and distributed arrays, blocking shared accesses,
and explicit synchronization (``barrier``, ``post``/``wait``,
``lock``/``unlock``).
"""

from repro.lang import ast
from repro.lang.checker import CheckedProgram, check
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, parse
from repro.lang.types import (
    DOUBLE,
    FLAG,
    INT,
    LOCK,
    VOID,
    Distribution,
    ScalarKind,
    Type,
)


def parse_and_check(source: str, filename: str = "<input>") -> CheckedProgram:
    """Parses and type-checks MiniSplit source text in one step."""
    return check(parse(source, filename))


__all__ = [
    "ast",
    "parse",
    "check",
    "parse_and_check",
    "tokenize",
    "Parser",
    "CheckedProgram",
    "Type",
    "ScalarKind",
    "Distribution",
    "INT",
    "DOUBLE",
    "VOID",
    "FLAG",
    "LOCK",
]
