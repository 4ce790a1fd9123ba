"""Shared test utilities: program builders and compilation shorthands."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import OptLevel, compile_source
from repro.analysis.delays import (
    AnalysisLevel,
    AnalysisResult,
    analyze_function,
)
from repro.ir.cfg import Module
from repro.ir.inline import inline_all
from repro.ir.lowering import lower_program
from repro.lang import parse_and_check


def frontend(source: str) -> Module:
    """Parse + check + lower."""
    return lower_program(parse_and_check(source))


def inlined(source: str) -> Module:
    return inline_all(frontend(source))


def analyze(source: str,
            level: AnalysisLevel = AnalysisLevel.SYNC) -> AnalysisResult:
    return analyze_function(inlined(source).main, level)


def delay_pairs(result: AnalysisResult) -> List[Tuple[str, str]]:
    """Delay edges as human-comparable (kind var, kind var) strings."""
    return [
        (f"{a.kind.value} {a.var}", f"{b.kind.value} {b.var}")
        for a, b in result.delay_edges()
    ]


def run_and_snapshot(
    source: str,
    opt_level: OptLevel,
    procs: int = 4,
    seed: int = 0,
    machine=None,
    jitter: int = 0,
):
    """Compile + simulate; returns (SimulationResult, snapshot dict)."""
    from repro.runtime.machine import CM5

    machine = machine or CM5
    if jitter:
        machine = machine.with_jitter(jitter)
    program = compile_source(source, opt_level)
    result = program.run(procs, machine, seed=seed)
    return result, result.snapshot()


def snapshots_equal(a: Dict[str, list], b: Dict[str, list],
                    tol: float = 1e-9) -> bool:
    if a.keys() != b.keys():
        return False
    for name in a:
        if len(a[name]) != len(b[name]):
            return False
        for x, y in zip(a[name], b[name]):
            if abs(x - y) > tol:
                return False
    return True


#: The paper's Figure 1 as an SPMD program.
FIGURE_1 = """
shared int Data;
shared int Flag;
void main() {
  int f; int d;
  if (MYPROC == 0) {
    Data = 1;
    Flag = 1;
  }
  if (MYPROC == 1) {
    f = Flag;
    d = Data;
  }
}
"""

#: The paper's Figure 5: post-wait producer/consumer.
FIGURE_5 = """
shared int X;
shared int Y;
shared flag_t F;
void main() {
  int u; int v;
  if (MYPROC == 0) { X = 1; Y = 2; post(F); }
  else { wait(F); v = Y; u = X; }
}
"""


def barrier_ladder(size: int) -> str:
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
