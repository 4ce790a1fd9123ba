"""Compilation sessions: one program, one chain, three memos.

Every compile in this system is the same chain::

    parse -> lower -> inline -> analysis -> constraints -> materialize-ir
          -> the level's codegen passes (repro.pipeline.specs.PIPELINES)

A :class:`CompilationSession` wraps one source program (or one IR
module) and runs that chain, memoizing the three prelude results a
later level can reuse: the pristine inlined module, the delay-set
analysis per :class:`AnalysisLevel`, and its ``MotionConstraints``.
Every compile and analysis entry point routes through a session:

* ``compile_source`` / ``compile_module`` open a throwaway session and
  compile once, in place;
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
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.delays import (
    AnalysisLevel,
    AnalysisResult,
    analyze_function,
)
from repro.codegen.constraints import MotionConstraints
from repro.codegen.verify import verify_compiled
from repro.errors import AnalysisError, CodegenError
from repro.ir.cfg import Module
from repro.ir.inline import inline_all
from repro.ir.lowering import lower_program
from repro.lang import parse_and_check
from repro.perf import profiler as perf
from repro.pipeline.passes import PASSES, LevelRun
from repro.pipeline.program import CodegenReport, CompiledProgram, OptLevel
from repro.pipeline.specs import PIPELINES, analysis_tag

LevelLike = Union[OptLevel, str]


@dataclass
class PipelineOptions:
    """Debug and verification knobs threaded through the driver."""

    #: Run ``verify_compiled`` after every mutating codegen pass (the
    #: ``--verify-each-pass`` flag; also enabled by the
    #: ``REPRO_VERIFY_EACH_PASS=1`` environment variable, which is how
    #: CI turns it on for whole test-suite runs).
    verify_each_pass: bool = False
    #: Pass names after which to dump the working IR ("all" = every
    #: mutating pass) — the ``--print-after-pass`` flag.
    print_after: Tuple[str, ...] = ()
    print_fn: Callable[[str], None] = field(default=print, repr=False)

    @classmethod
    def from_env(cls) -> "PipelineOptions":
        flag = os.environ.get("REPRO_VERIFY_EACH_PASS", "")
        return cls(verify_each_pass=flag not in ("", "0"))

    def wants_print_after(self, pass_name: str) -> bool:
        return "all" in self.print_after or pass_name in self.print_after


def _record(name: str, pipeline: str, seconds: float = 0.0,
            cached: bool = False, mutates_ir: bool = False) -> None:
    """Appends one entry to the active profiler's ``pass_events``."""
    profiler = perf.current()
    if profiler is not None:
        profiler.record_pass({
            "pass": name,
            "pipeline": pipeline,
            "seconds": round(seconds, 6),
            "cached": cached,
            "mutates_ir": mutates_ir,
        })


@contextmanager
def _stage(name: str, pipeline: str,
           mutates_ir: bool = False) -> Iterator[None]:
    """Times one executed stage under ``pass.<name>``; records its event."""
    start = time.perf_counter()
    with perf.pass_timer(f"pass.{name}"):
        yield
    _record(name, pipeline, time.perf_counter() - start,
            mutates_ir=mutates_ir)


def _memo_hit(name: str, pipeline: str) -> None:
    """Makes a reuse visible: the stage this pipeline did NOT run."""
    perf.count("pipeline.artifact_hits")
    perf.count(f"pipeline.cached.{name}")
    _record(name, pipeline, cached=True)


class CompilationSession:
    """Shared compilation state for one program.

    Created from either ``source`` text or an IR ``module`` (exactly
    one).  ``clone_input`` only matters for module-seeded sessions:
    True (default) copies before inlining so the caller's module
    is never touched; False adopts and mutates it (the old
    ``compile_module(clone=False)`` contract).
    """

    def __init__(
        self,
        source: Optional[str] = None,
        module: Optional[Module] = None,
        filename: str = "<input>",
        clone_input: bool = True,
        options: Optional[PipelineOptions] = None,
    ) -> None:
        if (source is None) == (module is None):
            raise ValueError(
                "CompilationSession needs exactly one of source=/module="
            )
        self.source = source
        self.filename = filename
        self.clone_input = clone_input
        self.options = options if options is not None \
            else PipelineOptions.from_env()
        #: The seeded pre-inline module; None for source sessions and
        #: once a ``clone_input=False`` session has inlined it in place.
        self._module = module
        # The memos: valid for the pristine inlined module, dropped
        # together when an in-place compile takes it.
        self._inlined: Optional[Module] = None
        self._analyses: Dict[AnalysisLevel, AnalysisResult] = {}
        self._constraints: Dict[AnalysisLevel, MotionConstraints] = {}

    # -- the memoized prelude ----------------------------------------------

    def _get_inlined(self, pipeline: str) -> Module:
        if self._inlined is not None:
            _memo_hit("inline", pipeline)
            return self._inlined
        perf.count("pipeline.artifact_misses")
        if self.source is not None:
            with _stage("parse", pipeline):
                ast = parse_and_check(self.source, self.filename)
            with _stage("lower", pipeline):
                module = lower_program(ast)
        elif self._module is None:
            raise AnalysisError(
                "pipeline: cannot re-derive the AST — this session was "
                "created from an IR module and its inlined form was "
                "consumed by an in-place compile"
            )
        elif self.clone_input:
            # The caller's module must stay untouched: inline a copy.
            module = self._module.copy()
        else:
            module, self._module = self._module, None
        with _stage("inline", pipeline):
            inline_all(module)
        self._inlined = module
        return module

    def _memoized(self, memo: dict, level: AnalysisLevel, stage: str,
                  pipeline: str, compute: Callable[[], object]):
        """``memo[level]``, running ``compute`` as stage
        ``<stage>-sas|sync`` on a miss."""
        name = f"{stage}-{analysis_tag(level)}"
        if level in memo:
            _memo_hit(name, pipeline)
        else:
            perf.count("pipeline.artifact_misses")
            with _stage(name, pipeline):
                memo[level] = compute()
        return memo[level]

    def _get_analysis(self, level: AnalysisLevel, inlined: Module,
                      pipeline: str) -> AnalysisResult:
        # The sibling level analysed this very function, so its
        # access/conflict sets line up by uid and index.
        sibling = (AnalysisLevel.SAS if level is AnalysisLevel.SYNC
                   else AnalysisLevel.SYNC)
        return self._memoized(
            self._analyses, level, "analysis", pipeline,
            lambda: analyze_function(
                inlined.main, level, reuse_from=self._analyses.get(sibling)
            ),
        )

    def _get_constraints(self, level: AnalysisLevel,
                         analysis: AnalysisResult,
                         pipeline: str) -> MotionConstraints:
        return self._memoized(
            self._constraints, level, "constraints", pipeline,
            lambda: MotionConstraints(analysis),
        )

    # -- entry points ------------------------------------------------------

    def compile(
        self,
        opt_level: LevelLike = OptLevel.O3,
        in_place: bool = False,
    ) -> CompiledProgram:
        """Runs ``opt_level``'s pipeline; returns the compiled program.

        ``in_place=False`` (shared mode) strikes a fresh working copy
        from the pristine inlined module, leaving every memo valid for
        further levels.  ``in_place=True`` mutates the inlined module
        itself — cheaper for single-shot compiles — and the session
        forgets its memos (a later compile re-derives them from the
        source, or fails with a clear diagnostic if it can't).
        """
        level = OptLevel(opt_level)  # a member or its string value
        spec = PIPELINES[level]
        pipeline = level.value
        perf.count("pipeline.compiles")

        # Analysis strictly before any pass runs: it must see the
        # pristine IR (and, shared, serve every later level too).
        inlined = self._get_inlined(pipeline)
        analysis = self._get_analysis(spec.analysis, inlined, pipeline)
        constraints = self._get_constraints(spec.analysis, analysis, pipeline)
        with _stage("materialize-ir", pipeline):
            if in_place:
                work = inlined
                self._inlined = None
                self._analyses.clear()
                self._constraints.clear()
            else:
                work = inlined.copy()
        run = LevelRun(work, constraints, CodegenReport())
        for name in spec.passes:
            self._run_pass(name, run, pipeline)
        return CompiledProgram(
            module=work,
            opt_level=level,
            analysis=analysis,
            report=run.report,
            delay_fences=analysis.fence_uids(),
        )

    def _run_pass(self, name: str, run: LevelRun, pipeline: str) -> None:
        """One codegen pass, timed, with the debug hooks applied."""
        try:
            pass_ = PASSES[name]
        except KeyError:
            raise CodegenError(f"pipeline: unknown pass {name!r}")
        with _stage(name, pipeline, pass_.mutates_ir):
            pass_.run(run)
        if not pass_.mutates_ir:
            return
        options = self.options
        if options.verify_each_pass:
            with perf.pass_timer("pass.verify-each-pass"):
                try:
                    verify_compiled(run.main)
                except CodegenError as exc:
                    raise CodegenError(
                        f"--verify-each-pass: IR invalid after pass "
                        f"{name!r} ({pipeline}): {exc}"
                    )
        if options.wants_print_after(name):
            options.print_fn(
                f"; IR after pass {name} ({pipeline})\n{run.module}\n"
            )

    def compile_levels(
        self, levels: Sequence[LevelLike]
    ) -> List[CompiledProgram]:
        """Shared-mode compiles of several levels, in ``levels`` order."""
        return [self.compile(level) for level in levels]

    def analyze(
        self, level: AnalysisLevel = AnalysisLevel.SYNC
    ) -> AnalysisResult:
        """The delay-set analysis for ``level`` (memoized)."""
        pipeline = f"analyze-{analysis_tag(level)}"
        return self._get_analysis(
            level, self._get_inlined(pipeline), pipeline
        )

    def inlined_module(self) -> Module:
        """The pristine inlined module (computing it if needed)."""
        return self._get_inlined("frontend")
