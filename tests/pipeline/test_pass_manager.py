"""Compile-driver behavior: stage order, reuse, debug hooks.

Stage order is read from the profiler: every executed stage is timed
as ``pass.<stage>``, and ``prof.passes`` keeps the order the stages
finished in.  A reuse is a ``pipeline.cached.<stage>`` count.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import CodegenError
from repro.ir.instructions import Opcode
from repro.perf import profiler as perf
from repro.pipeline import (
    PASSES,
    CompilationSession,
    OptLevel,
    PipelineOptions,
    describe_pipelines,
    level_passes,
)
from tests.helpers import FIGURE_1, FIGURE_5

#: The text ``repro passes`` prints, byte for byte.
PASSES_TEXT = Path(__file__).parents[1] / "data" / "repro_passes.txt"

#: A cold O3 in-place compile must run exactly this sequence.
O3_COLD_SEQUENCE = [
    "parse",
    "lower",
    "inline",
    "analysis-sync",
    "constraints-sync",
    "materialize-ir",
    "split-phase",
    "fuse-gets",
    "hoist-gets",
    "sync-placement",
    "one-way",
    "coalesce-counters",
    "verify",
]


def _stages(prof) -> list:
    """The stages a profiled compile ran, in execution order."""
    return [name[len("pass."):] for name in prof.passes
            if name.startswith("pass.")]


def _displayed_sequence(level: OptLevel) -> list:
    """The stage line ``repro passes`` prints under ``level``."""
    lines = describe_pipelines().splitlines()
    header = next(i for i, line in enumerate(lines)
                  if line.startswith(f"  {level.value}  "))
    return lines[header + 1].strip().split(" -> ")


class TestEventStream:
    """(The class name predates the profiler-only telemetry; it is kept
    so the test ids stay stable.)"""

    def test_cold_in_place_o3_sequence(self):
        # Explicit empty options: no pass.verify-each-pass stage even
        # when CI exports REPRO_VERIFY_EACH_PASS=1.
        session = CompilationSession(FIGURE_1, options=PipelineOptions())
        with perf.profiled() as prof:
            session.compile(OptLevel.O3, in_place=True)
        assert _stages(prof) == O3_COLD_SEQUENCE
        assert not any(name.startswith("pipeline.cached.")
                       for name in prof.counters)
        assert prof.counters["pipeline.artifact_misses"] == 3

    def test_shared_sweep_reuses_frontend_and_analysis(self):
        session = CompilationSession(FIGURE_5)
        with perf.profiled() as prof:
            session.compile_levels(["O0", "O2", "O3"])
        for name in ("pass.parse", "pass.lower", "pass.inline",
                     "pass.analysis-sync", "pass.constraints-sync"):
            assert prof.passes[name].calls == 1, name
        # Levels after the first count the reuse of each prelude memo.
        for stage in ("inline", "analysis-sync", "constraints-sync"):
            assert prof.counters[f"pipeline.cached.{stage}"] == 2, stage
        assert prof.counters["pipeline.artifact_hits"] == 6
        assert prof.counters["pipeline.artifact_misses"] == 3
        assert prof.counters["pipeline.compiles"] == 3

    @pytest.mark.parametrize("level", list(OptLevel))
    def test_displayed_sequence_is_the_executed_sequence(self, level):
        """``repro passes`` and the driver both read the one pass
        table; a cold in-place compile ties the two."""
        session = CompilationSession(FIGURE_5, options=PipelineOptions())
        with perf.profiled() as prof:
            session.compile(level, in_place=True)
        assert _stages(prof) == _displayed_sequence(level)


class TestPassTable:
    def test_repro_passes_text_is_unchanged(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == PASSES_TEXT.read_bytes()

    def test_levels_are_cumulative(self):
        levels = list(OptLevel)
        assert level_passes(OptLevel.O0) == []
        for lower, higher in zip(levels, levels[1:]):
            added = [p for p in level_passes(higher)
                     if p not in level_passes(lower)]
            assert [p.first for p in added] == [higher] * len(added)
        assert level_passes(OptLevel.O4) == list(PASSES.values())

    def test_analysis_per_level(self):
        from repro.analysis.delays import AnalysisLevel

        assert [level.analysis for level in OptLevel] == [
            AnalysisLevel.SYNC, AnalysisLevel.SAS, AnalysisLevel.SYNC,
            AnalysisLevel.SYNC, AnalysisLevel.SYNC,
        ]


class TestScheduling:
    def test_analysis_artifact_shared_with_compile(self):
        from repro.analysis.delays import AnalysisLevel

        session = CompilationSession(FIGURE_1)
        analysis = session.analyze(AnalysisLevel.SYNC)
        program = session.compile(OptLevel.O3)
        assert program.analysis is analysis

    def test_cross_level_analysis_artifact_reuse_counter(self):
        session = CompilationSession(FIGURE_5)
        with perf.profiled() as prof:
            session.compile(OptLevel.O3)   # analysis-sync (cold)
            session.compile(OptLevel.O1)   # analysis-sas reuses accesses
        assert prof.counters.get("analysis.artifacts_reused", 0) >= 1


def _corrupt_sync(main) -> None:
    """Deletes the sync_ctr guarding a get — its destination is then
    used while the get is still pending, which verify_compiled flags."""
    for block in main.blocks:
        pending = None
        for index, instr in enumerate(block.instrs):
            if instr.op is Opcode.GET and instr.local_array is None:
                pending = instr.counter
            elif (instr.op is Opcode.SYNC_CTR
                  and pending is not None
                  and instr.counter == pending):
                del block.instrs[index]
                return
    raise AssertionError("no get/sync_ctr pair to corrupt")


def _patch_pass(monkeypatch, name, after) -> None:
    """Replaces ``PASSES[name]`` with one that also calls ``after(main)``."""
    original = PASSES[name]

    def corrupting_run(run):
        original.run(run)
        after(run.main)

    monkeypatch.setitem(
        PASSES, name, dataclasses.replace(original, run=corrupting_run)
    )


class TestDebugHooks:
    def test_verify_each_pass_names_the_corrupting_pass(self, monkeypatch):
        _patch_pass(monkeypatch, "fuse-gets", _corrupt_sync)
        options = PipelineOptions(verify_each_pass=True)
        session = CompilationSession(FIGURE_1, options=options)
        with pytest.raises(CodegenError, match="after pass 'fuse-gets'"):
            session.compile(OptLevel.O3)

    def test_transient_corruption_only_caught_by_the_flag(
        self, monkeypatch
    ):
        """sync-placement re-places every managed sync from scratch, so
        a sync dropped after fuse-gets is *healed* downstream — only
        --verify-each-pass (exercised above) observes the transient
        corruption at all.  This pins that healing behavior."""
        _patch_pass(monkeypatch, "fuse-gets", _corrupt_sync)
        # Explicit empty options: this test pins the *default* healing
        # behavior even when CI exports REPRO_VERIFY_EACH_PASS=1.
        session = CompilationSession(FIGURE_1, options=PipelineOptions())
        session.compile(OptLevel.O3)  # no error: final verify passes

    def test_late_corruption_caught_without_naming_culprit(
        self, monkeypatch
    ):
        """A pass corrupting the IR after sync-placement surfaces at
        the final verify — as a generic error that does not name the
        culprit, which is exactly what --verify-each-pass adds."""
        def drop_every_sync(main):
            for block in main.blocks:
                block.instrs = [
                    i for i in block.instrs
                    if i.op is not Opcode.SYNC_CTR
                ]

        _patch_pass(monkeypatch, "coalesce-counters", drop_every_sync)
        # Explicit empty options: the generic-error half of this test
        # must hold even when CI exports REPRO_VERIFY_EACH_PASS=1.
        session = CompilationSession(FIGURE_1, options=PipelineOptions())
        with pytest.raises(CodegenError) as excinfo:
            session.compile(OptLevel.O3)
        assert "coalesce-counters" not in str(excinfo.value)

        options = PipelineOptions(verify_each_pass=True)
        flagged = CompilationSession(FIGURE_1, options=options)
        with pytest.raises(CodegenError,
                           match="after pass 'coalesce-counters'"):
            flagged.compile(OptLevel.O3)

    def test_print_after_pass_dumps_ir(self, capsys):
        options = PipelineOptions(print_after=("split-phase",))
        session = CompilationSession(FIGURE_1, options=options)
        session.compile(OptLevel.O3)
        out = capsys.readouterr().out
        assert out.count("; IR after pass") == 1
        assert out.startswith("; IR after pass split-phase (O3)\n")
        assert "func main" in out

    def test_print_after_a_non_mutating_pass_dumps_the_final_ir(
        self, capsys
    ):
        """``verify`` rewrites nothing, but naming it still prints:
        the IR after it is the compiled program's."""
        options = PipelineOptions(print_after=("verify",))
        program = CompilationSession(FIGURE_1, options=options).compile(
            OptLevel.O1
        )
        out = capsys.readouterr().out
        header = "; IR after pass verify (O1)\n"
        assert out == f"{header}{program.pretty()}\n\n"

    def test_print_after_all_dumps_every_mutating_pass(self, capsys):
        options = PipelineOptions(print_after=("all",))
        session = CompilationSession(FIGURE_1, options=options)
        session.compile(OptLevel.O1)
        mutating = [
            pass_.name for pass_ in level_passes(OptLevel.O1)
            if pass_.mutates_ir
        ]
        out = capsys.readouterr().out
        assert [
            line.split()[4] for line in out.splitlines()
            if line.startswith("; IR after pass")
        ] == mutating

    @pytest.mark.parametrize("level", ["O1", "O2", "O3", "O4"])
    def test_verify_each_pass_in_place_analyses_once(self, level):
        """The in-place hazard: the passes mutate the module that was
        analysed, so a second analysis mid-pipeline would describe IR
        whose uids no longer match.  The driver must ask exactly once,
        hooks on or off."""
        session = CompilationSession(
            FIGURE_5, options=PipelineOptions(verify_each_pass=True)
        )
        with perf.profiled() as prof:
            session.compile(level, in_place=True)
        analyses = {
            name: record.calls for name, record in prof.passes.items()
            if name.startswith("pass.analysis-")
        }
        assert list(analyses.values()) == [1], analyses
        assert prof.passes["pass.verify-each-pass"].calls >= 1

    def test_verify_each_pass_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_EACH_PASS", "1")
        assert PipelineOptions.from_env().verify_each_pass
        monkeypatch.setenv("REPRO_VERIFY_EACH_PASS", "0")
        assert not PipelineOptions.from_env().verify_each_pass
        monkeypatch.delenv("REPRO_VERIFY_EACH_PASS")
        assert not PipelineOptions.from_env().verify_each_pass
