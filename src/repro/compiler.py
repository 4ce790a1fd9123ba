"""Top-level public API: compile and analyze MiniSplit source programs.

Typical use::

    from repro import compile_source, OptLevel
    from repro.runtime import CM5

    program = compile_source(source_text, OptLevel.O3)
    result = program.run(num_procs=8, machine=CM5)
    print(result.cycles, result.snapshot()["A"])

Both entry points route through one
:class:`~repro.pipeline.CompilationSession`, so compiling and analyzing
obtain the inlined module from the same session memo — callers that
need both (or several optimization levels) should open a session with
:func:`open_session` and reuse it::

    session = open_session(source_text)
    analysis = session.analyze(AnalysisLevel.SYNC)   # frontend runs once
    program = session.compile(OptLevel.O3)           # analysis reused
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.delays import AnalysisLevel, AnalysisResult
from repro.ir.cfg import Module
from repro.ir.lowering import lower_program
from repro.lang import parse_and_check
from repro.pipeline import (
    CompilationSession,
    CompiledProgram,
    OptLevel,
    PipelineOptions,
)


def frontend(source: str, filename: str = "<input>") -> Module:
    """Parses, checks and lowers MiniSplit source to an IR module."""
    return lower_program(parse_and_check(source, filename))


def open_session(
    source: str,
    filename: str = "<input>",
    options: Optional[PipelineOptions] = None,
) -> CompilationSession:
    """A shared compilation session for ``source``.

    Frontend, inlining, and delay-set analyses run at most once per
    session and are reused by every ``compile``/``analyze`` call on it.
    """
    return CompilationSession(source, filename, options)


def compile_source(
    source: str,
    opt_level: OptLevel = OptLevel.O3,
    filename: str = "<input>",
    options: Optional[PipelineOptions] = None,
) -> CompiledProgram:
    """Compiles MiniSplit source at the given optimization level."""
    session = open_session(source, filename, options)
    return session.compile(opt_level, in_place=True)


def analyze_source(
    source: str,
    level: AnalysisLevel = AnalysisLevel.SYNC,
    filename: str = "<input>",
) -> AnalysisResult:
    """Runs delay-set analysis on a source program's inlined main."""
    return open_session(source, filename).analyze(level)
