"""Back-compat surface for the optimization pipeline.

The pipeline itself lives in :mod:`repro.pipeline`: the codegen passes
are the ``PASSES`` table, the O0–O4 levels are declarative
:class:`~repro.pipeline.PipelineSpec` data, and compiles run through a
:class:`~repro.pipeline.CompilationSession` that memoizes the inlined
module and the analyses across levels.  This module keeps the
long-standing import points (``OptLevel``, ``CompiledProgram``,
``CodegenReport``, :func:`compile_module`) stable.

Barrier alignment note (§5.2): the analysis orders accesses by barrier
*phase intervals*, which is sound for every execution our runtime can
produce (barrier episodes are global rendezvous; executions whose
processors would disagree on barrier counts deadlock at the rendezvous
instead of running on inconsistently).  The paper's two-version runtime
check addresses the same hazard for its real machine; our simulator's
barrier *is* the aligned runtime, so the guarded-slow-path variant is
unnecessary — see DESIGN.md.
"""

from __future__ import annotations

from repro.pipeline.program import (  # noqa: F401  (re-exports)
    CodegenReport,
    CompiledProgram,
    OptLevel,
)


def compile_module(
    module,
    opt_level: OptLevel = OptLevel.O3,
    clone: bool = True,
) -> CompiledProgram:
    """Inlines, analyzes and optimizes ``module`` at ``opt_level``.

    With ``clone=True`` (default) the input module is left untouched —
    benches compile one module at several levels.  Runs a single-shot
    :class:`~repro.pipeline.CompilationSession`; callers compiling one
    module at many levels get frontend/analysis sharing by keeping a
    session of their own instead.
    """
    from repro.pipeline.session import CompilationSession

    session = CompilationSession(module=module, clone_input=clone)
    return session.compile(opt_level, in_place=True)
