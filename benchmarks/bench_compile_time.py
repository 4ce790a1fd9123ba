"""Ablation: cost of the analyses themselves.

Not a paper table, but a DESIGN.md-listed ablation: how expensive is
cycle detection, and how much does the fast SPMD formulation buy over
the general Definition-1 simple-path search it is equivalent to?
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

from benchmarks.bench_common import print_table
from tests.analysis.general_backpath import GeneralBackPathFinder


def _program_for(size: int) -> str:
    """A synthetic SPMD program with ~size accesses in barrier phases."""
    lines = ["shared double A[%d];" % (size * 8), "void main() {",
             "  int i;"]
    for phase in range(size // 4):
        for k in range(4):
            lines.append(
                f"  A[MYPROC * 8 + {k}] = A[MYPROC * 8 + {k}] + 1.0;"
            )
        lines.append("  barrier();")
    lines.append("}")
    return "\n".join(lines)


#: SYNC delay-set size on the two ladder sizes no tier-1 test reaches.
_LADDER_DELAYS = {256: 2016, 512: 8128}


@pytest.mark.benchmark(group="compile-time")
@pytest.mark.parametrize("size", [8, 16, 32, 64, 256, 512])
def test_analysis_scales(benchmark, size):
    """SYNC analysis on the barrier ladder, up to 1 152 accesses.

    Nothing in tier-1 analyses more than 280 accesses, so the two large
    sizes pin the delay-set size exactly and ladder-512 asserts host
    time — which is why CI's ``perf-gate`` job runs this, not tier-1.
    """
    module = inline_all(frontend(_program_for(size)))

    def analyze():
        start = time.perf_counter()
        result = analyze_function(module.main, AnalysisLevel.SYNC)
        return result, time.perf_counter() - start

    result, seconds = benchmark.pedantic(analyze, rounds=3, iterations=1)
    assert result.stats.num_accesses >= size
    if size in _LADDER_DELAYS:
        assert result.stats.delay_size == _LADDER_DELAYS[size]
    if size == 512:
        assert seconds < 1.5, "ladder-512 SYNC analysis regressed"


@pytest.mark.benchmark(group="compile-time")
@pytest.mark.parametrize("size", [64, 128, 256])
def test_counter_allocation_scales(benchmark, size):
    """Counter allocation against the frontend on the barrier ladder.

    The ladder keeps half of its 2 x size counters live to the end of
    the program: an allocator that inserts every live pair at every
    point is cubic here (2.2 s of a 2.3 s ladder-256 O1 compile), while
    interference rows touched only where the live set changes stay
    beside parse + lower.  Asserts host time, so CI's ``perf-gate`` job
    runs it, not tier-1.
    """
    source = _program_for(size)

    def compile_profiled():
        with profiled() as profiler:
            start = time.perf_counter()
            program = compile_source(source, OptLevel.O1)
            return program, time.perf_counter() - start, profiler

    program, seconds, profiler = benchmark.pedantic(
        compile_profiled, rounds=3, iterations=1
    )

    def pass_seconds(name):
        return profiler.passes[f"pass.{name}"].seconds

    print_table(
        f"Counter allocation vs frontend (ladder-{size}, O1)",
        ("counters", "coalesce-counters s", "parse + lower s", "compile s"),
        [(
            f"{program.report.counters_before} -> "
            f"{program.report.counters_after}",
            f"{pass_seconds('coalesce-counters'):.4f}",
            f"{pass_seconds('parse') + pass_seconds('lower'):.4f}",
            f"{seconds:.4f}",
        )],
    )
    assert program.report.counters_after == size + 1
    if size == 256:
        assert seconds < 1.0, "ladder-256 O1 compile regressed"


def _cell(program):
    """What a compile produced, free of process-global uid values
    (fence uids are taken relative to the module's first uid)."""
    base = min(instr.uid for _, _, instr in program.module.main.instructions())
    return (program.pretty(), program.report,
            sorted(uid - base for uid in program.delay_fences))


@pytest.mark.benchmark(group="compile-time")
def test_shared_session_pays(benchmark):
    """One session per kernel against one ``compile_source`` per level.

    The five kernels at O0-O4: a session parses, inlines and analyses
    once and strikes each level's working IR with ``Module.copy``, so it
    must produce the same 25 programs in clearly less host time (the
    ``deepcopy`` it replaced read 1.0x).  Asserts host time, so CI's
    ``perf-gate`` job runs it, not tier-1.
    """
    sources = [app.source(8) for app in ALL_APPS]
    levels = tuple(OptLevel)

    def sweeps():
        best_cold = best_shared = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            cold = [compile_source(source, level)
                    for source in sources for level in levels]
            best_cold = min(best_cold, time.perf_counter() - start)
            start = time.perf_counter()
            shared = [program for source in sources for program in
                      open_session(source).compile_levels(levels)]
            best_shared = min(best_shared, time.perf_counter() - start)
        return cold, shared, best_cold, best_shared

    cold, shared, cold_s, shared_s = benchmark.pedantic(
        sweeps, rounds=1, iterations=1
    )
    print_table(
        "Shared session vs cold compiles (5 kernels x O0-O4, min of 3)",
        ("cold sweep s", "shared sweep s", "ratio"),
        [(f"{cold_s:.3f}", f"{shared_s:.3f}", f"{cold_s / shared_s:.2f}x")],
    )
    assert [_cell(p) for p in shared] == [_cell(p) for p in cold]
    assert cold_s / shared_s >= 1.3, "holding a session no longer pays"


@pytest.mark.benchmark(group="compile-time")
def test_spmd_engine_vs_general_oracle(benchmark):
    """The SPMD reachability engine against the exponential oracle."""
    app = get_app("health")
    module = inline_all(frontend(app.source(4)))
    refine_index_metadata(module.main)
    accesses = AccessSet(module.main)
    conflicts = ConflictSet(accesses)

    def run_both():
        start = time.perf_counter()
        fast = BackPathEngine(accesses, conflicts).delay_set()
        fast_time = time.perf_counter() - start
        start = time.perf_counter()
        oracle = GeneralBackPathFinder(
            accesses, conflicts, num_procs=6
        ).delay_set()
        oracle_time = time.perf_counter() - start
        return fast, oracle, fast_time, oracle_time

    fast, oracle, fast_time, oracle_time = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    print_table(
        "SPMD engine vs Definition-1 oracle (health kernel, 4 procs)",
        ("engine", "delay edges", "seconds"),
        [
            ("spmd-reachability", len(fast), f"{fast_time:.4f}"),
            ("general-simple-path", len(oracle), f"{oracle_time:.4f}"),
        ],
    )
    # The oracle explores bounded processor copies; it may miss paths
    # needing more copies than it was given, so fast >= oracle, and on
    # this kernel they agree exactly.
    assert oracle <= fast
