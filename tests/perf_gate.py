"""Host-time gates on the compiler, run by CI's ``perf-gate`` job::

    python -m pytest tests/perf_gate.py -q -s

Each row asserts host seconds or a ratio of them, so the file has no
``test_`` prefix: tier-1 never collects it.
"""

import time

import pytest

from repro import OptLevel, compile_source
from repro.analysis.accesses import AccessSet
from repro.analysis.conflicts import ConflictSet
from repro.analysis.cycle.spmd import BackPathEngine
from repro.analysis.delays import AnalysisLevel, analyze_function
from repro.apps import ALL_APPS, get_app
from repro.compiler import frontend, open_session
from repro.ir.inline import inline_all
from repro.ir.symrefine import refine_index_metadata
from repro.perf import profiled
from tests.analysis.general_backpath import GeneralBackPathFinder
from tests.helpers import barrier_ladder

#: SYNC delay-set size on the two ladder sizes no tier-1 test reaches.
_LADDER_DELAYS = {256: 2016, 512: 8128}


@pytest.mark.parametrize("size", [8, 16, 32, 64, 256, 512])
def test_analysis_scales(size):
    """SYNC analysis on the barrier ladder, up to 1 152 accesses.

    Nothing in tier-1 analyses more than 280 accesses, so the two large
    sizes pin the delay-set size exactly and ladder-512 asserts host
    time.
    """
    module = inline_all(frontend(barrier_ladder(size)))
    start = time.perf_counter()
    result = analyze_function(module.main, AnalysisLevel.SYNC)
    seconds = time.perf_counter() - start
    assert result.stats.num_accesses >= size
    if size in _LADDER_DELAYS:
        assert result.stats.delay_size == _LADDER_DELAYS[size]
    if size == 512:
        assert seconds < 1.5, "ladder-512 SYNC analysis regressed"


@pytest.mark.parametrize("size", [64, 128, 256])
def test_counter_allocation_scales(size):
    """Counter allocation against the frontend on the barrier ladder.

    The ladder keeps half of its 2 x size counters live to the end of
    the program: an allocator that inserts every live pair at every
    point is cubic here (2.2 s of a 2.3 s ladder-256 O1 compile), while
    interference rows touched only where the live set changes stay
    beside parse + lower.
    """
    with profiled() as profiler:
        start = time.perf_counter()
        program = compile_source(barrier_ladder(size), OptLevel.O1)
        seconds = time.perf_counter() - start
    passes = ", ".join(f"{name} {profiler.passes['pass.' + name].seconds:.4f} s"
                       for name in ("coalesce-counters", "parse", "lower"))
    print(f"\nladder-{size} O1: {program.report.counters_after} counters, "
          f"compile {seconds:.4f} s ({passes})")
    assert program.report.counters_after == size + 1
    if size == 256:
        assert seconds < 1.0, "ladder-256 O1 compile regressed"


def _cell(program):
    """What a compile produced, free of process-global uid values
    (fence uids are taken relative to the module's first uid)."""
    base = min(instr.uid for _, _, instr in program.module.main.instructions())
    return (program.pretty(), program.report,
            sorted(uid - base for uid in program.delay_fences))


def test_shared_session_pays():
    """One session per kernel against one ``compile_source`` per level.

    The five kernels at O0-O4: a session parses, inlines and analyses
    once and strikes each level's working IR with ``Module.copy``, so it
    must produce the same 25 programs in clearly less host time (the
    ``deepcopy`` it replaced read 1.0x).
    """
    sources = [app.source(8) for app in ALL_APPS]
    levels = tuple(OptLevel)
    cold_s = shared_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        cold = [compile_source(source, level)
                for source in sources for level in levels]
        cold_s = min(cold_s, time.perf_counter() - start)
        start = time.perf_counter()
        shared = [program for source in sources for program in
                  open_session(source).compile_levels(levels)]
        shared_s = min(shared_s, time.perf_counter() - start)
    print(f"\nshared session vs cold compiles (min of 3): cold {cold_s:.3f} s, "
          f"shared {shared_s:.3f} s, {cold_s / shared_s:.2f}x")
    assert [_cell(p) for p in shared] == [_cell(p) for p in cold]
    assert cold_s / shared_s >= 1.3, "holding a session no longer pays"


#: Ceiling on the frontend's share of a cold sweep's non-analysis pass
#: time.  Median over five runs of the median of three sweeps
#: (5 kernels + ladder-128, O0-O4; Python 3.11, 2-core x86-64 VM):
#: 0.665 with frozen-dataclass tokens/locations, a bisect per token and
#: an ``isinstance`` chain per expression node; 0.600 with slots
#: tokens, a running line counter and type-keyed dispatch.  Midpoint.
_FRONTEND_SHARE_BOUND = 0.63


def test_frontend_share_of_cold_sweep():
    """``pass.parse`` + ``pass.lower`` against the non-analysis passes.

    Each of the five kernels and the 128-rung ladder compiles cold at
    O0-O4, so the frontend runs once per level.  The denominator is
    every ``pass.*`` except ``pass.analysis-*``: an analysis change
    (one that deletes a refinement, say) must not move a frontend
    gate.  The share is a ratio of host times on one runner, so runner
    speed cancels.
    """
    sources = [app.source(8) for app in ALL_APPS] + [barrier_ladder(128)]
    for source in sources:  # imports and regex caches, outside the timing
        compile_source(source, OptLevel.O3)
    shares = []
    for _ in range(3):
        with profiled() as profiler:
            for source in sources:
                for level in OptLevel:
                    compile_source(source, level)
        seconds = {name: record.seconds
                   for name, record in profiler.passes.items()
                   if name.startswith("pass.")
                   and not name.startswith("pass.analysis-")}
        shares.append((seconds["pass.parse"] + seconds["pass.lower"])
                      / sum(seconds.values()))
    share = sorted(shares)[1]
    print(f"\nfrontend share of a cold sweep: "
          f"{' '.join(f'{s:.3f}' for s in sorted(shares))}, median "
          f"{share:.3f}, bound {_FRONTEND_SHARE_BOUND:.2f}")
    assert share < _FRONTEND_SHARE_BOUND, "the frontend's share regressed"


def test_spmd_engine_vs_general_oracle():
    """The SPMD reachability engine against the exponential oracle
    (health kernel, 4 processors; tens of seconds, nearly all of it
    the oracle)."""
    module = inline_all(frontend(get_app("health").source(4)))
    refine_index_metadata(module.main)
    accesses = AccessSet(module.main)
    conflicts = ConflictSet(accesses)
    start = time.perf_counter()
    fast = BackPathEngine(accesses, conflicts).delay_set()
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    oracle = GeneralBackPathFinder(accesses, conflicts, num_procs=6).delay_set()
    oracle_s = time.perf_counter() - start
    print(f"\nspmd-reachability {len(fast)} delays in {fast_s:.4f} s, "
          f"general-simple-path {len(oracle)} in {oracle_s:.4f} s")
    # The oracle explores bounded processor copies; it may miss paths
    # needing more copies than it was given, so fast >= oracle, and on
    # this kernel they agree exactly.
    assert oracle <= fast
