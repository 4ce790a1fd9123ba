"""The headline acceptance criterion for the pass-manager refactor.

A shared-session O0–O4 sweep of the size-64 barrier ladder
re-runs the frontend, inlining, and each delay-set analysis at most
once per required :class:`AnalysisLevel` — asserted via the profiler's
pass counters — while producing delay sets and compiled modules
byte-identical to per-level cold compiles.
"""

from repro import OptLevel, compile_source
from repro.compiler import open_session
from repro.perf import profiler as perf
from tests.helpers import barrier_ladder

ALL_LEVELS = tuple(OptLevel)


def test_size64_sweep_shares_frontend_and_analysis():
    source = barrier_ladder(64)
    with perf.profiled() as prof:
        session = open_session(source)
        programs = session.compile_levels(ALL_LEVELS)

    # Frontend + inline: exactly once for the whole sweep.
    for name in ("pass.parse", "pass.lower", "pass.inline"):
        assert prof.passes[name].calls == 1, name
    # One analysis per required AnalysisLevel: SYNC serves O0/O2/O3/O4,
    # SAS serves O1.
    assert prof.passes["pass.analysis-sync"].calls == 1
    assert prof.passes["pass.analysis-sas"].calls == 1
    assert prof.passes["pass.constraints-sync"].calls == 1
    assert prof.passes["pass.constraints-sas"].calls == 1
    # Codegen runs per level (split-phase appears in O1..O4).
    assert prof.passes["pass.split-phase"].calls == 4
    assert prof.counters["pipeline.compiles"] == len(ALL_LEVELS)
    # The reuse is visible in the structured event stream too.
    assert prof.counters["pipeline.cached.analysis-sync"] == 3
    assert prof.counters["pipeline.cached.inline"] == 4

    # Byte-identical to cold compiles, delay sets included.
    for level, shared in zip(ALL_LEVELS, programs):
        cold = compile_source(source, level)
        assert str(shared.module) == str(cold.module), level
        assert shared.splitc() == cold.splitc(), level
        assert (shared.analysis.delays_by_index
                == cold.analysis.delays_by_index), level
        assert shared.report == cold.report, level
