"""What an in-place compile does to a session's memos.

(The file and class names predate the memoizing session — they are kept
so the test ids stay stable.)
"""

import pytest

from repro.errors import AnalysisError
from repro.perf import profiler as perf
from repro.pipeline import CompilationSession, OptLevel
from tests.helpers import FIGURE_1, frontend

#: The stages ``session.analyze()`` runs when nothing is memoized.
REDERIVED = ("pass.parse", "pass.inline", "pass.analysis-sync")


class TestInvalidationOnMutatingPasses:
    def test_in_place_compile_dirties_session_artifacts(self):
        session = CompilationSession(source=FIGURE_1)
        with perf.profiled() as prof:
            session.compile(OptLevel.O3, in_place=True)
            # The codegen passes consumed the pristine inlined module;
            # everything describing it must be derived afresh.
            session.analyze()
        for name in REDERIVED:
            assert prof.passes[name].calls == 2, name

    def test_shared_compile_preserves_session_artifacts(self):
        session = CompilationSession(source=FIGURE_1)
        with perf.profiled() as prof:
            session.compile(OptLevel.O3)
            session.analyze()
        for name in REDERIVED:
            assert prof.passes[name].calls == 1, name

    def test_in_place_recompile_rederives_from_source(self):
        session = CompilationSession(source=FIGURE_1)
        first = session.compile(OptLevel.O3, in_place=True)
        second = session.compile(OptLevel.O3, in_place=True)
        assert first.splitc() == second.splitc()
        assert str(first.module) == str(second.module)

    def test_module_seeded_in_place_compile_is_single_shot(self):
        module = frontend(FIGURE_1)
        session = CompilationSession(module=module, clone_input=False)
        session.compile(OptLevel.O3, in_place=True)
        # No source to re-derive from: the pristine IR was consumed.
        with pytest.raises(AnalysisError, match="re-derive"):
            session.compile(OptLevel.O3, in_place=True)

    def test_module_seeded_clone_keeps_input_untouched(self):
        module = frontend(FIGURE_1)
        before = str(module)
        session = CompilationSession(module=module)
        session.compile(OptLevel.O3, in_place=True)
        assert str(module) == before
        # The seeded (pre-inline) module survives in-place compiles, so
        # the session can strike a fresh inlined copy and compile again.
        again = session.compile(OptLevel.O1, in_place=True)
        assert again.opt_level is OptLevel.O1

    def test_exactly_one_of_source_or_module(self):
        with pytest.raises(ValueError):
            CompilationSession()
        with pytest.raises(ValueError):
            CompilationSession(source=FIGURE_1, module=frontend(FIGURE_1))
