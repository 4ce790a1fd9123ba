"""Common exception types used throughout the repro package.

Every user-facing failure — a lexical error in a MiniSplit source file, a
type error, an unsupported construct in the analyzer, a deadlock detected
by the machine simulator — derives from :class:`ReproError` so callers can
catch one base class at the API boundary.
"""

from __future__ import annotations

from typing import Optional


class SourceLocation:
    """A position in a MiniSplit source file (1-based line and column).

    Immutable, with a frozen dataclass's ``==``, ``hash`` and ``repr``;
    one per token, so ``__init__`` skips ``object.__setattr__``.
    """

    __slots__ = ("line", "column", "filename")
    line: int
    column: int
    filename: str

    def __init__(self, line: int, column: int, filename: str = "<input>"):
        _set_line(self, line)
        _set_column(self, column)
        _set_filename(self, filename)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not SourceLocation:
            return NotImplemented
        return (self.line, self.column, self.filename) == (
            other.line, other.column, other.filename)

    def __hash__(self) -> int:
        return hash((self.line, self.column, self.filename))

    def __repr__(self) -> str:
        return (f"SourceLocation(line={self.line!r}, "
                f"column={self.column!r}, filename={self.filename!r})")

    def __reduce__(self):
        return SourceLocation, (self.line, self.column, self.filename)

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


_set_line, _set_column, _set_filename = (
    SourceLocation.__dict__[name].__set__ for name in SourceLocation.__slots__)


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class SourceError(ReproError):
    """An error attributable to a location in a MiniSplit source file."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.location = location
        self.message = message
        prefix = f"{location}: " if location is not None else ""
        super().__init__(f"{prefix}{message}")


class LexError(SourceError):
    """A lexical error (bad character, unterminated literal, ...)."""


class ParseError(SourceError):
    """A syntax error."""


class TypeError_(SourceError):
    """A semantic/type error.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class AnalysisError(ReproError):
    """The analyzer was given a program it cannot handle (e.g. recursion)."""


class CodegenError(ReproError):
    """Code generation failed an internal invariant."""


class RuntimeFault(ReproError):
    """A fault raised by the machine simulator while executing a program."""


class NetworkFault(RuntimeFault):
    """A message exhausted its retransmission budget and is undeliverable.

    Raised by ``network.Transport`` when an envelope is still unacked
    after ``network.RETRY_CAP`` retransmissions — a fault plan so lossy
    that the exponential backoff runs out.  Carries the undeliverable
    message, its (src, dst) link and its transmission count, so callers
    (and the CLI) render a diagnosis instead of hanging.
    """

    def __init__(
        self,
        message: str,
        undeliverable=None,
        link=None,
        attempts: Optional[int] = None,
    ):
        self.undeliverable = undeliverable
        self.link = link
        self.attempts = attempts
        super().__init__(message)


class DeadlockError(RuntimeFault):
    """All simulated processors are blocked and no message is in flight.

    ``report`` holds the multi-line forensics dump (per-processor
    blocked reason and program counter, pending sync-object state,
    undrained stores and unacked envelopes); the exception string leads with a
    one-line summary so log greps stay readable.
    """

    def __init__(self, message: str, report: Optional[str] = None):
        self.report = report
        super().__init__(message if report is None
                         else f"{message}\n{report}")


class ConsistencyViolation(ReproError):
    """A trace was determined not to be sequentially consistent."""


def error_summary(exc: BaseException) -> str:
    """A one-line diagnostic: the first line of ``str(exc)``, or the
    exception's type name when that is empty."""
    lines = str(exc).splitlines()
    return lines[0] if lines and lines[0] else type(exc).__name__
