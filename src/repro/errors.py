"""Common exception types used throughout the repro package.

Every user-facing failure — a lexical error in a MiniSplit source file, a
type error, an unsupported construct in the analyzer, a deadlock detected
by the machine simulator — derives from :class:`ReproError` so callers can
catch one base class at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SourceLocation:
    """A position in a MiniSplit source file (1-based line and column)."""

    line: int
    column: int
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


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

    Raised by ``network.Transport`` when the retry cap is reached — a
    permanently partitioned link, or a fault plan so lossy
    the exponential backoff budget runs out.  Carries the undeliverable
    message and the sending link's fault statistics so callers (and the
    CLI) can render a precise diagnostic instead of hanging.
    """

    def __init__(
        self,
        message: str,
        undeliverable=None,
        link=None,
        attempts: Optional[int] = None,
        link_stats=None,
    ):
        self.undeliverable = undeliverable
        self.link = link
        self.attempts = attempts
        self.link_stats = link_stats
        super().__init__(message)


class DeadlockError(RuntimeFault):
    """All simulated processors are blocked and no message is in flight.

    ``report`` holds the multi-line forensics dump (per-processor
    blocked reason and program counter, pending sync-object state,
    in-flight message counts); the exception string leads with a
    one-line summary so log greps stay readable.
    """

    def __init__(self, message: str, report: Optional[str] = None):
        self.report = report
        super().__init__(message if report is None
                         else f"{message}\n{report}")


class ConsistencyViolation(ReproError):
    """A trace was determined not to be sequentially consistent."""
