"""What an in-place compile does to a session's memos.

(The file and class names predate the memoizing session — they are kept
so the test ids stay stable.)
"""

from repro.perf import profiler as perf
from repro.pipeline import CompilationSession, OptLevel
from tests.helpers import FIGURE_1

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
