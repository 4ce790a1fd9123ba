"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure of the paper's
evaluation.  The pytest-benchmark fixture times the compile+simulate
pipeline (the reproducible "cost" axis); the *paper-facing* numbers —
simulated machine cycles, message counts, delay-set sizes — are printed
as tables in the captured output and asserted for shape.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro import OptLevel
from repro.pipeline import CompiledProgram
from repro.runtime import CM5, MachineConfig
from repro.runtime.simulator import SimulationResult

#: Figure 12's three bars, in paper order.
FIG12_LEVELS = (OptLevel.O1, OptLevel.O2, OptLevel.O3)
FIG12_LABELS = {
    OptLevel.O1: "unoptimized",
    OptLevel.O2: "pipelined",
    OptLevel.O3: "one-way",
}

_compile_cache: Dict[Tuple[str, OptLevel], CompiledProgram] = {}
_run_cache: Dict[Tuple[str, OptLevel, int, int, str, int],
                 SimulationResult] = {}


def compile_cached(source: str, level: OptLevel) -> CompiledProgram:
    """In-memory + on-disk compile cache (see repro.perf.parallel).

    Repeated bench runs skip analysis entirely; set
    ``REPRO_COMPILE_CACHE=0`` to force cold compiles.
    """
    key = (source, level)
    if key not in _compile_cache:
        from repro.perf.parallel import compile_with_cache

        _compile_cache[key] = compile_with_cache(source, level)
    return _compile_cache[key]


def run_cached(
    source: str,
    level: OptLevel,
    procs: int,
    machine: MachineConfig = CM5,
    seed: int = 7,
) -> SimulationResult:
    key = (source, level, procs, seed, machine.name, machine.jitter)
    if key not in _run_cache:
        program = compile_cached(source, level)
        _run_cache[key] = program.run(procs, machine, seed=seed)
    return _run_cache[key]


def print_table(title: str, header, rows) -> None:
    print()
    print(f"=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
