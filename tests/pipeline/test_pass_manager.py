"""Compile-driver behavior: stage order, events, debug hooks."""

import dataclasses

import pytest

from repro.errors import CodegenError
from repro.ir.instructions import Opcode
from repro.perf import profiler as perf
from repro.pipeline import (
    PASSES,
    PIPELINES,
    CompilationSession,
    OptLevel,
    PipelineOptions,
    full_pass_sequence,
)
from tests.helpers import FIGURE_1, FIGURE_5

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


class TestEventStream:
    def test_cold_in_place_o3_sequence(self):
        session = CompilationSession(source=FIGURE_1)
        with perf.profiled() as prof:
            session.compile(OptLevel.O3, in_place=True)
        names = [e["pass"] for e in prof.pass_events]
        assert names == O3_COLD_SEQUENCE
        assert not any(e["cached"] for e in prof.pass_events)

    def test_shared_sweep_reuses_frontend_and_analysis(self):
        session = CompilationSession(source=FIGURE_5)
        with perf.profiled() as prof:
            session.compile_levels(["O0", "O2", "O3"])
        for name in ("pass.parse", "pass.lower", "pass.inline",
                     "pass.analysis-sync", "pass.constraints-sync"):
            assert prof.passes[name].calls == 1, name
        # Levels after the first record the reuse as cache-hit events.
        cached = [
            (e["pipeline"], e["pass"])
            for e in prof.pass_events if e["cached"]
        ]
        assert ("O2", "analysis-sync") in cached
        assert ("O3", "analysis-sync") in cached
        assert prof.counters["pipeline.cached.analysis-sync"] == 2
        assert prof.counters["pipeline.compiles"] == 3

    def test_events_carry_structured_fields(self):
        session = CompilationSession(source=FIGURE_1)
        with perf.profiled() as prof:
            session.compile(OptLevel.O1, in_place=True)
        by_name = {e["pass"]: e for e in prof.pass_events}
        split = by_name["split-phase"]
        assert split["pipeline"] == "O1"
        assert split["mutates_ir"] is True
        assert split["seconds"] >= 0.0
        assert split["cached"] is False
        analysis = by_name["analysis-sas"]
        assert analysis["pipeline"] == "O1"
        assert analysis["mutates_ir"] is False

    @pytest.mark.parametrize("level", list(OptLevel))
    def test_displayed_sequence_is_the_executed_sequence(self, level):
        """``repro passes`` prints ``full_pass_sequence``; the driver
        runs its own chain.  A cold in-place compile ties the two."""
        session = CompilationSession(source=FIGURE_5)
        with perf.profiled() as prof:
            session.compile(level, in_place=True)
        executed = [e["pass"] for e in prof.pass_events if not e["cached"]]
        assert executed == full_pass_sequence(PIPELINES[level])


class TestScheduling:
    def test_unknown_pass_rejected(self, monkeypatch):
        spec = dataclasses.replace(
            PIPELINES[OptLevel.O3], passes=("split-phase", "no-such-pass")
        )
        monkeypatch.setitem(PIPELINES, OptLevel.O3, spec)
        session = CompilationSession(source=FIGURE_1)
        with pytest.raises(CodegenError, match="unknown pass"):
            session.compile(OptLevel.O3)

    def test_analysis_artifact_shared_with_compile(self):
        from repro.analysis.delays import AnalysisLevel

        session = CompilationSession(source=FIGURE_1)
        analysis = session.analyze(AnalysisLevel.SYNC)
        program = session.compile(OptLevel.O3)
        assert program.analysis is analysis

    def test_cross_level_analysis_artifact_reuse_counter(self):
        session = CompilationSession(source=FIGURE_5)
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
        session = CompilationSession(source=FIGURE_1, options=options)
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
        session = CompilationSession(
            source=FIGURE_1, options=PipelineOptions()
        )
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
        session = CompilationSession(
            source=FIGURE_1, options=PipelineOptions()
        )
        with pytest.raises(CodegenError) as excinfo:
            session.compile(OptLevel.O3)
        assert "coalesce-counters" not in str(excinfo.value)

        options = PipelineOptions(verify_each_pass=True)
        flagged = CompilationSession(source=FIGURE_1, options=options)
        with pytest.raises(CodegenError,
                           match="after pass 'coalesce-counters'"):
            flagged.compile(OptLevel.O3)

    def test_print_after_pass_dumps_ir(self):
        dumps = []
        options = PipelineOptions(
            print_after=("split-phase",), print_fn=dumps.append
        )
        session = CompilationSession(source=FIGURE_1, options=options)
        session.compile(OptLevel.O3)
        assert len(dumps) == 1
        assert "; IR after pass split-phase (O3)" in dumps[0]
        assert "func main" in dumps[0]

    def test_print_after_all_dumps_every_mutating_pass(self):
        dumps = []
        options = PipelineOptions(
            print_after=("all",), print_fn=dumps.append
        )
        session = CompilationSession(source=FIGURE_1, options=options)
        session.compile(OptLevel.O1)
        mutating = [
            name for name in PIPELINES[OptLevel.O1].passes
            if PASSES[name].mutates_ir
        ]
        assert len(dumps) == len(mutating)

    @pytest.mark.parametrize("level", ["O1", "O2", "O3", "O4"])
    def test_verify_each_pass_in_place_analyses_once(self, level):
        """The in-place hazard: the passes mutate the module that was
        analysed, so a second analysis mid-pipeline would describe IR
        whose uids no longer match.  The driver must ask exactly once,
        hooks on or off."""
        session = CompilationSession(
            source=FIGURE_5, options=PipelineOptions(verify_each_pass=True)
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
