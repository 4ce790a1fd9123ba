"""Compilation sessions: one program, many pipelines, shared artifacts.

A :class:`CompilationSession` wraps one source program (or one IR
module) together with an :class:`ArtifactStore` and a
:class:`PassManager`.  Every compile and analysis entry point in the
system routes through a session:

* ``compile_source`` / ``compile_module`` open a throwaway session and
  compile once, in place — exactly the old single-shot behavior;
* ``analyze_source`` asks the same session machinery for just the
  analysis artifact, so it shares the frontend with compilation
  instead of re-running parse/check/lower/inline on its own;
* multi-level sweeps that hold a session themselves
  (:meth:`CompilationSession.compile_levels`) keep it across levels, so
  the frontend, inlining, and each required delay-set analysis run
  **once**, and each level's codegen works on a cheap copy of the
  pristine inlined module.  (``perf.parallel.compile_levels`` does not:
  it compiles each level as an independent store-fronted job.)

Uid stability makes the sharing sound: the analyses answer queries by
instruction uid, and ``copy.deepcopy`` preserves uids, so one analysis
of the pristine module is valid for every level's working copy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.delays import AnalysisLevel, AnalysisResult
from repro.ir.cfg import Module
from repro.pipeline.artifacts import (
    INLINED,
    MODULE,
    WORK_MAIN,
    WORK_MODULE,
    ArtifactStore,
    is_level_scoped,
)
from repro.pipeline.manager import PassManager
from repro.pipeline.program import CodegenReport, CompiledProgram, OptLevel
from repro.pipeline.specs import PIPELINES, SAS_KEY, SYNC_KEY, PipelineSpec

LevelLike = Union[OptLevel, str]


@dataclass
class PipelineOptions:
    """Debug and verification knobs threaded through the manager."""

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


class PassContext:
    """One pipeline execution: a level store layered on the session's."""

    def __init__(self, session: "CompilationSession", spec: PipelineSpec,
                 in_place: bool) -> None:
        self.session = session
        self.spec = spec
        self.in_place = in_place
        self.options = session.options
        self.store = ArtifactStore(parent=session.store)
        self.report = CodegenReport()
        #: Pass names currently executing (cycle guard / diagnostics).
        self.running: List[str] = []
        #: Pass names already recorded in this pipeline's event stream
        #: (dedupes the cache-hit events the manager emits on reuse).
        self.emitted: Set[str] = set()

    @property
    def pipeline_name(self) -> str:
        if self.spec.level is not None:
            return self.spec.level.value
        return f"analyze-{self.spec.analysis_key}"

    def resolve(self, name: str) -> str:
        return self.spec.resolve(name)

    def has(self, name: str) -> bool:
        return self.store.has(self.resolve(name))

    def get(self, name: str):
        return self.store.get(self.resolve(name))

    def put(self, name: str, value) -> None:
        resolved = self.resolve(name)
        if is_level_scoped(resolved):
            self.store.put(resolved, value)
        else:
            self.session.store.put(resolved, value)

    def invalidate(self, name: str) -> bool:
        resolved = self.resolve(name)
        if is_level_scoped(resolved):
            return self.store.invalidate(resolved)
        return self.session.store.invalidate(resolved)


class CompilationSession:
    """Shared compilation state for one program.

    Created from either ``source`` text or an IR ``module`` (exactly
    one).  ``clone_input`` only matters for module-seeded sessions:
    True (default) deep-copies before inlining so the caller's module
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
        self.module_is_external = module is not None
        self.clone_input = clone_input
        self.options = options if options is not None \
            else PipelineOptions.from_env()
        self.store = ArtifactStore()
        self.manager = PassManager()
        if module is not None:
            self.store.put(MODULE, module)

    # -- pass-facing properties -------------------------------------------

    @property
    def preserve_input_module(self) -> bool:
        """Must the inline pass leave the seeded module untouched?"""
        return self.module_is_external and self.clone_input

    # -- entry points ------------------------------------------------------

    def compile(
        self,
        opt_level: LevelLike = OptLevel.O3,
        in_place: bool = False,
        strip_delays: bool = False,
    ) -> CompiledProgram:
        """Runs ``opt_level``'s pipeline; returns the compiled program.

        ``in_place=False`` (shared mode) strikes a fresh working copy
        from the pristine inlined module, leaving every session
        artifact valid for further levels.  ``in_place=True`` mutates
        the inlined module itself — cheaper for single-shot compiles —
        and the mutating passes then invalidate the session's
        pristine-IR artifacts (a later compile re-derives them from
        the source, or fails with a clear diagnostic if it can't).

        ``strip_delays=True`` produces the delay-stripped debug twin:
        identical IR, but without the weak-memory fence metadata that
        makes the program robust under TSO/PSO.  SC behaviour is
        unaffected — this knob exists for the robustness oracle and
        for demonstrating that the analysis's delays are load-bearing.
        """
        from repro.perf import profiler as perf

        level = OptLevel(opt_level.value if isinstance(opt_level, OptLevel)
                         else opt_level)
        spec = PIPELINES[level]
        ctx = PassContext(self, spec, in_place=in_place)
        perf.count("pipeline.compiles")

        # Analysis strictly before the working copy exists: it must see
        # the pristine IR (and, shared, serve every later level too).
        self.manager.ensure(ctx, "analysis")
        self.manager.ensure(ctx, "constraints")
        analysis: AnalysisResult = ctx.get("analysis")
        # Pin the level's analysis artifacts into the level store: an
        # in-place pipeline invalidates them from the *session* store
        # the moment a pass mutates the IR, but this pipeline's own
        # later passes still legitimately consume them (they answer by
        # uid, which mutation preserves).  Without the pin, a mid-
        # pipeline re-ensure would re-derive a fresh analysis whose
        # uids match nothing in the working IR.
        ctx.store.put(ctx.resolve("analysis"), analysis)
        ctx.store.put(ctx.resolve("constraints"), ctx.get("constraints"))
        self.manager.ensure(ctx, WORK_MAIN)
        for name in spec.passes:
            self.manager.run_pass(ctx, name)
        return CompiledProgram(
            module=ctx.get(WORK_MODULE),
            opt_level=level,
            analysis=analysis,
            report=ctx.report,
            delay_fences=(
                frozenset() if strip_delays else analysis.fence_uids()
            ),
        )

    def compile_levels(
        self, levels: Sequence[LevelLike]
    ) -> List[CompiledProgram]:
        """Shared-mode compiles of several levels, in ``levels`` order."""
        return [self.compile(level) for level in levels]

    def analyze(
        self, level: AnalysisLevel = AnalysisLevel.SYNC
    ) -> AnalysisResult:
        """The delay-set analysis artifact for ``level`` (cached)."""
        key = SAS_KEY if level is AnalysisLevel.SAS else SYNC_KEY
        spec = PipelineSpec(
            level=None, analysis_key=key, passes=(),
            description="analysis only",
        )
        ctx = PassContext(self, spec, in_place=False)
        self.manager.ensure(ctx, "analysis")
        return ctx.get("analysis")

    def inlined_module(self) -> Module:
        """The pristine inlined module (computing it if needed)."""
        spec = PipelineSpec(
            level=None, analysis_key=SYNC_KEY, passes=(),
            description="frontend only",
        )
        ctx = PassContext(self, spec, in_place=False)
        self.manager.ensure(ctx, INLINED)
        return ctx.get(INLINED)
