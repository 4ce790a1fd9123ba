"""Declarative pipeline specifications for the optimization levels.

Each :class:`PipelineSpec` is pure data: which delay-set analysis the
level pipelines against, and the ordered codegen passes to run on the
working IR.  The frontend/analysis prelude (parse -> lower -> inline ->
analysis -> constraints -> materialize-ir) is the same chain for every
level and is not listed here —
:class:`~repro.pipeline.session.CompilationSession` runs it, memoized,
ahead of the level's passes.

Adding a pass to a level — or a whole new level — is an edit to this
table, not to a driver function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.delays import AnalysisLevel
from repro.pipeline.passes import PASSES
from repro.pipeline.program import OptLevel


@dataclass(frozen=True)
class PipelineSpec:
    """One optimization level as data."""

    level: OptLevel
    #: The delay set the level pipelines against: SAS (§4 Shasha–Snir)
    #: or SYNC (§5 sync-aware).
    analysis: AnalysisLevel
    #: Codegen pass names, in execution order.
    passes: Tuple[str, ...]
    description: str = ""


def analysis_tag(level: AnalysisLevel) -> str:
    """``sas`` / ``sync``: the suffix of the level's prelude stage names."""
    return level.name.lower()


PIPELINES: Dict[OptLevel, PipelineSpec] = {
    OptLevel.O0: PipelineSpec(
        level=OptLevel.O0,
        analysis=AnalysisLevel.SYNC,
        passes=(),
        description="blocking accesses, no reordering (naive but SC)",
    ),
    OptLevel.O1: PipelineSpec(
        level=OptLevel.O1,
        analysis=AnalysisLevel.SAS,
        passes=(
            "split-phase",
            "fuse-gets",
            "sync-placement",
            "coalesce-counters",
            "verify",
        ),
        description="split-phase pipelining under the Shasha–Snir "
                    "delay set (§4)",
    ),
    OptLevel.O2: PipelineSpec(
        level=OptLevel.O2,
        analysis=AnalysisLevel.SYNC,
        passes=(
            "split-phase",
            "fuse-gets",
            "hoist-gets",
            "sync-placement",
            "coalesce-counters",
            "verify",
        ),
        description="pipelining under the synchronization-aware delay "
                    "set (§5)",
    ),
    OptLevel.O3: PipelineSpec(
        level=OptLevel.O3,
        analysis=AnalysisLevel.SYNC,
        passes=(
            "split-phase",
            "fuse-gets",
            "hoist-gets",
            "sync-placement",
            "one-way",
            "coalesce-counters",
            "verify",
        ),
        description="O2 + put→store one-way conversion (§6)",
    ),
    OptLevel.O4: PipelineSpec(
        level=OptLevel.O4,
        analysis=AnalysisLevel.SYNC,
        passes=(
            "split-phase",
            "communication-elim",
            "fuse-gets",
            "hoist-gets",
            "sync-placement",
            "one-way",
            "coalesce-counters",
            "verify",
        ),
        description="O3 + redundant-get and dead-put elimination (§7)",
    ),
}


def full_pass_sequence(spec: PipelineSpec) -> List[str]:
    """The stage names of a cold compile of ``spec``, for display."""
    tag = analysis_tag(spec.analysis)
    return [
        "parse", "lower", "inline",
        f"analysis-{tag}", f"constraints-{tag}", "materialize-ir",
        *spec.passes,
    ]


def describe_pipelines() -> str:
    """Human-readable table dump for the ``repro passes`` command."""
    lines: List[str] = ["registered pipelines:"]
    for spec in PIPELINES.values():
        lines.append(
            f"  {spec.level.value}  "
            f"(analysis: {analysis_tag(spec.analysis)})  "
            f"— {spec.description}"
        )
        lines.append("      " + " -> ".join(full_pass_sequence(spec)))
    lines.append("")
    lines.append("registered passes:")
    width = max(len(name) for name in PASSES)
    for name, pass_ in PASSES.items():
        suffix = "; mutates IR" if pass_.mutates_ir else ""
        lines.append(f"  {name.ljust(width)}  {pass_.description}{suffix}")
    return "\n".join(lines)
