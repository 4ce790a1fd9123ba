"""Compilation sessions: one program, one chain, three memos.

Every compile in this system is the same chain::

    parse -> lower -> inline -> analysis -> constraints -> materialize-ir
          -> the level's codegen passes (repro.pipeline.passes.PASSES)

A :class:`CompilationSession` wraps one source program and runs that
chain, memoizing the three prelude results a later level can reuse:
the pristine inlined module, the delay-set analysis per
:class:`AnalysisLevel`, and its ``MotionConstraints``.  Every compile
and analysis entry point routes through a session:

* ``compile_source`` opens a throwaway session and compiles once, in
  place;
* ``analyze_source`` asks the same session for just the analysis, so it
  shares the frontend with compilation instead of re-running
  parse/check/lower/inline on its own;
* callers that hold a session across levels
  (:meth:`CompilationSession.compile_levels` — the only multi-level
  compile: ``repro fuzz``, ``repro bench-app``, the benchmark's shared
  sweep) run the frontend, inlining, and each required delay-set
  analysis **once**, and each level's codegen works on a copy of the
  pristine inlined module.

Uid stability makes the sharing sound: the analyses answer queries by
instruction uid, and :meth:`Module.copy` (structural: new containers
and instruction objects over shared immutable operands, cheap enough
that holding a session pays) preserves uids, so one analysis of the
pristine module is valid for every level's working copy.  The
same argument covers an in-place compile — its passes mutate the very
module that was analysed, but keep the uids — provided the analysis ran
before the first pass did; :meth:`CompilationSession.compile` holds it
in a local variable from then on and never asks again.

Each executed stage is timed under the profiler's ``pass.<stage>``; a
memo hit counts ``pipeline.artifact_hits`` and
``pipeline.cached.<stage>`` instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.delays import (
    AnalysisLevel,
    AnalysisResult,
    analyze_function,
)
from repro.codegen.constraints import MotionConstraints
from repro.codegen.verify import verify_compiled
from repro.errors import CodegenError
from repro.ir.cfg import Module
from repro.ir.inline import inline_all
from repro.ir.lowering import lower_program
from repro.lang import parse_and_check
from repro.perf import profiler as perf
from repro.pipeline.passes import LevelRun, Pass, level_passes
from repro.pipeline.program import CodegenReport, CompiledProgram, OptLevel

LevelLike = Union[OptLevel, str]


@dataclass
class PipelineOptions:
    """Debug and verification knobs threaded through the driver."""

    #: Run ``verify_compiled`` after every mutating codegen pass (the
    #: ``--verify-each-pass`` flag; also enabled by the
    #: ``REPRO_VERIFY_EACH_PASS=1`` environment variable, which is how
    #: CI turns it on for whole test-suite runs).
    verify_each_pass: bool = False
    #: Pass names after which to print the working IR ("all" = every
    #: mutating pass; a named pass prints whether or not it mutates)
    #: — the ``--print-after-pass`` flag.
    print_after: Tuple[str, ...] = ()

    @classmethod
    def from_env(cls) -> "PipelineOptions":
        flag = os.environ.get("REPRO_VERIFY_EACH_PASS", "")
        return cls(verify_each_pass=flag not in ("", "0"))

    def wants_print_after(self, pass_: Pass) -> bool:
        return pass_.name in self.print_after or (
            pass_.mutates_ir and "all" in self.print_after
        )


def _memo_hit(stage: str) -> None:
    """Makes a reuse visible: the stage this compile did NOT run."""
    perf.count("pipeline.artifact_hits")
    perf.count(f"pipeline.cached.{stage}")


class CompilationSession:
    """Shared compilation state for one source program."""

    def __init__(
        self,
        source: str,
        filename: str = "<input>",
        options: Optional[PipelineOptions] = None,
    ) -> None:
        self.source = source
        self.filename = filename
        self.options = options if options is not None \
            else PipelineOptions.from_env()
        # The memos: valid for the pristine inlined module, dropped
        # together when an in-place compile takes it.
        self._inlined: Optional[Module] = None
        self._analyses: Dict[AnalysisLevel, AnalysisResult] = {}
        self._constraints: Dict[AnalysisLevel, MotionConstraints] = {}

    # -- the memoized prelude ----------------------------------------------

    def _get_inlined(self) -> Module:
        if self._inlined is not None:
            _memo_hit("inline")
            return self._inlined
        perf.count("pipeline.artifact_misses")
        with perf.pass_timer("pass.parse"):
            ast = parse_and_check(self.source, self.filename)
        with perf.pass_timer("pass.lower"):
            module = lower_program(ast)
        with perf.pass_timer("pass.inline"):
            inline_all(module)
        self._inlined = module
        return module

    def _memoized(self, memo: dict, level: AnalysisLevel, stage: str,
                  compute: Callable[[], object]):
        """``memo[level]``, running ``compute`` as stage
        ``<stage>-sas|sync`` on a miss."""
        name = f"{stage}-{level.name.lower()}"
        if level in memo:
            _memo_hit(name)
        else:
            perf.count("pipeline.artifact_misses")
            with perf.pass_timer(f"pass.{name}"):
                memo[level] = compute()
        return memo[level]

    def _get_analysis(self, level: AnalysisLevel,
                      inlined: Module) -> AnalysisResult:
        # The sibling level analysed this very function, so its
        # access/conflict sets line up by uid and index.
        sibling = (AnalysisLevel.SAS if level is AnalysisLevel.SYNC
                   else AnalysisLevel.SYNC)
        return self._memoized(
            self._analyses, level, "analysis",
            lambda: analyze_function(
                inlined.main, level, reuse_from=self._analyses.get(sibling)
            ),
        )

    def _get_constraints(self, level: AnalysisLevel,
                         analysis: AnalysisResult) -> MotionConstraints:
        return self._memoized(
            self._constraints, level, "constraints",
            lambda: MotionConstraints(analysis),
        )

    # -- entry points ------------------------------------------------------

    def compile(
        self,
        opt_level: LevelLike = OptLevel.O3,
        in_place: bool = False,
    ) -> CompiledProgram:
        """Runs ``opt_level``'s passes; returns the compiled program.

        ``in_place=False`` (shared mode) strikes a fresh working copy
        from the pristine inlined module, leaving every memo valid for
        further levels.  ``in_place=True`` mutates the inlined module
        itself — cheaper for single-shot compiles — and the session
        forgets its memos (a later compile re-derives them from the
        source).
        """
        level = OptLevel(opt_level)  # a member or its string value
        perf.count("pipeline.compiles")

        # Analysis strictly before any pass runs: it must see the
        # pristine IR (and, shared, serve every later level too).
        inlined = self._get_inlined()
        analysis = self._get_analysis(level.analysis, inlined)
        constraints = self._get_constraints(level.analysis, analysis)
        with perf.pass_timer("pass.materialize-ir"):
            if in_place:
                work = inlined
                self._inlined = None
                self._analyses.clear()
                self._constraints.clear()
            else:
                work = inlined.copy()
        run = LevelRun(work, constraints, CodegenReport())
        for pass_ in level_passes(level):
            self._run_pass(pass_, run, level)
        return CompiledProgram(
            module=work,
            opt_level=level,
            analysis=analysis,
            report=run.report,
            delay_fences=analysis.fence_uids(),
        )

    def _run_pass(self, pass_: Pass, run: LevelRun,
                  level: OptLevel) -> None:
        """One codegen pass, timed, with the debug hooks applied."""
        with perf.pass_timer(f"pass.{pass_.name}"):
            pass_.run(run)
        options = self.options
        if options.verify_each_pass and pass_.mutates_ir:
            with perf.pass_timer("pass.verify-each-pass"):
                try:
                    verify_compiled(run.main)
                except CodegenError as exc:
                    raise CodegenError(
                        f"--verify-each-pass: IR invalid after pass "
                        f"{pass_.name!r} ({level.value}): {exc}"
                    )
        if options.wants_print_after(pass_):
            print(f"; IR after pass {pass_.name} ({level.value})\n"
                  f"{run.module}\n")

    def compile_levels(
        self, levels: Sequence[LevelLike]
    ) -> List[CompiledProgram]:
        """Shared-mode compiles of several levels, in ``levels`` order."""
        return [self.compile(level) for level in levels]

    def analyze(
        self, level: AnalysisLevel = AnalysisLevel.SYNC
    ) -> AnalysisResult:
        """The delay-set analysis for ``level`` (memoized)."""
        return self._get_analysis(level, self._get_inlined())

    def inlined_module(self) -> Module:
        """The pristine inlined module (computing it if needed)."""
        return self._get_inlined()
