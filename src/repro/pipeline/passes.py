"""The codegen pass table: the paper's §6–§7 transformations by name.

Each :data:`PASSES` entry wraps one transformation function as a
:class:`Pass` working on a :class:`LevelRun` — the working module,
the level's :class:`MotionConstraints`, the split-phase bookkeeping
and the :class:`CodegenReport` being filled in.  The levels are
cumulative (§8), so the table is also the level table: each pass names
the first level that runs it, and a level runs, in table order, every
pass its rank admits (:func:`level_passes`).  The driver that times
them and applies the debug hooks is
:class:`~repro.pipeline.session.CompilationSession`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.codegen.constraints import MotionConstraints
from repro.codegen.counters import coalesce_counters
from repro.codegen.hoist import hoist_gets
from repro.codegen.oneway import convert_one_way
from repro.codegen.reuse import (
    eliminate_dead_puts,
    eliminate_redundant_gets,
)
from repro.codegen.splitphase import (
    SplitPhaseInfo,
    convert_to_split_phase,
    fuse_gets_into_locals,
)
from repro.codegen.syncmotion import place_syncs
from repro.codegen.verify import verify_compiled
from repro.ir.cfg import Function, Module
from repro.pipeline.program import CodegenReport, OptLevel


@dataclass
class LevelRun:
    """What one level's codegen passes share."""

    #: The level's working IR (a copy of the session's inlined module,
    #: or that module itself for in-place compiles).
    module: Module
    constraints: MotionConstraints
    report: CodegenReport
    #: Counter -> initiation map; ``split-phase`` sets it, and every
    #: pipeline that runs a consumer runs ``split-phase`` first.
    splitphase: Optional[SplitPhaseInfo] = None

    @property
    def main(self) -> Function:
        return self.module.main


@dataclass(frozen=True)
class Pass:
    """One codegen stage of the :data:`PASSES` table."""

    name: str
    #: The lowest level that runs this pass; every higher level does too.
    first: OptLevel
    run: Callable[[LevelRun], None]
    description: str
    #: True for passes that rewrite the working IR; drives the
    #: --verify-each-pass and --print-after-pass hooks.
    mutates_ir: bool = True


def _split_phase(run: LevelRun) -> None:
    info = convert_to_split_phase(run.main)
    run.splitphase = info
    run.report.converted_reads = info.converted_reads
    run.report.converted_writes = info.converted_writes


def _communication_elim(run: LevelRun) -> None:
    run.report.gets_eliminated = eliminate_redundant_gets(
        run.main, run.constraints, run.splitphase
    )
    run.report.puts_eliminated = eliminate_dead_puts(
        run.main, run.constraints, run.splitphase
    )


def _fuse_gets(run: LevelRun) -> None:
    run.report.gets_fused = fuse_gets_into_locals(run.main, run.splitphase)


def _hoist_gets(run: LevelRun) -> None:
    run.report.gets_hoisted = hoist_gets(run.main, run.constraints)


def _sync_placement(run: LevelRun) -> None:
    run.report.sync_moves = place_syncs(
        run.main, run.constraints, run.splitphase
    )


def _one_way(run: LevelRun) -> None:
    run.report.one_way_conversions = convert_one_way(
        run.main, run.splitphase
    )


def _coalesce_counters(run: LevelRun) -> None:
    before, after = coalesce_counters(run.main)
    run.report.counters_before = before
    run.report.counters_after = after


def _verify(run: LevelRun) -> None:
    verify_compiled(run.main)


#: Every pass in execution order.
PASSES: Dict[str, Pass] = {
    pass_.name: pass_
    for pass_ in (
        Pass("split-phase", OptLevel.O1, _split_phase,
             "blocking accesses -> split-phase get/put + sync_ctr (§6)"),
        Pass("communication-elim", OptLevel.O4, _communication_elim,
             "redundant-get and dead-put elimination (§7)"),
        Pass("fuse-gets", OptLevel.O1, _fuse_gets,
             "get t; sync; buf[i] = t  ->  get(&buf[i], ...); sync"),
        Pass("hoist-gets", OptLevel.O2, _hoist_gets,
             "hoists get initiations above earlier code (prefetch)"),
        Pass("sync-placement", OptLevel.O1, _sync_placement,
             "sinks each sync_ctr to its delay/def-use frontier (§6)"),
        Pass("one-way", OptLevel.O3, _one_way,
             "put -> store where every sync sits at a barrier (§6)"),
        Pass("coalesce-counters", OptLevel.O1, _coalesce_counters,
             "interference-colors sync counters down to a small set"),
        Pass("verify", OptLevel.O1, _verify,
             "static split-phase well-formedness check "
             "(pending-get dataflow)", mutates_ir=False),
    )
}

#: One line per level for ``repro passes``.
LEVEL_DESCRIPTIONS: Dict[OptLevel, str] = {
    OptLevel.O0: "blocking accesses, no reordering (naive but SC)",
    OptLevel.O1: "split-phase pipelining under the Shasha–Snir "
                 "delay set (§4)",
    OptLevel.O2: "pipelining under the synchronization-aware delay "
                 "set (§5)",
    OptLevel.O3: "O2 + put→store one-way conversion (§6)",
    OptLevel.O4: "O3 + redundant-get and dead-put elimination (§7)",
}


def level_passes(level: OptLevel) -> List[Pass]:
    """The passes ``level`` runs, in execution order."""
    return [pass_ for pass_ in PASSES.values()
            if pass_.first.rank <= level.rank]


def describe_pipelines() -> str:
    """Human-readable table dump for the ``repro passes`` command."""
    lines: List[str] = ["registered pipelines:"]
    for level, description in LEVEL_DESCRIPTIONS.items():
        tag = level.analysis.name.lower()
        stages = [
            "parse", "lower", "inline", f"analysis-{tag}",
            f"constraints-{tag}", "materialize-ir",
            *(pass_.name for pass_ in level_passes(level)),
        ]
        lines.append(f"  {level.value}  (analysis: {tag})  — {description}")
        lines.append("      " + " -> ".join(stages))
    lines.append("")
    lines.append("registered passes:")
    width = max(len(name) for name in PASSES)
    for name, pass_ in PASSES.items():
        suffix = "; mutates IR" if pass_.mutates_ir else ""
        lines.append(f"  {name.ljust(width)}  {pass_.description}{suffix}")
    return "\n".join(lines)
