"""Ablation: cost of the analyses themselves.

Not a paper table, but a DESIGN.md-listed ablation: how expensive is
cycle detection, and how much does the fast SPMD formulation buy over
the general Definition-1 simple-path search it is equivalent to?
"""

import time

import pytest

from repro.analysis.accesses import AccessSet
from repro.analysis.conflicts import ConflictSet
from repro.analysis.cycle.spmd import BackPathEngine
from repro.analysis.delays import AnalysisLevel, analyze_function
from repro.apps import get_app
from repro.compiler import frontend
from repro.ir.inline import inline_all
from repro.ir.symrefine import refine_index_metadata

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


@pytest.mark.benchmark(group="compile-time")
@pytest.mark.parametrize("size", [8, 16, 32, 64])
def test_analysis_scales(benchmark, size):
    module = inline_all(frontend(_program_for(size)))

    def analyze():
        return analyze_function(module.main, AnalysisLevel.SYNC)

    result = benchmark.pedantic(analyze, rounds=3, iterations=1)
    assert result.stats.num_accesses >= size


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
