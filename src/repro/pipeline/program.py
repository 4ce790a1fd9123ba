"""Optimization levels and the compiled-program value object.

Levels map onto the paper's evaluation (§8):

=====  =====================================================================
level  meaning
=====  =====================================================================
O0     blocking accesses, no codegen pass (naive but sequentially
       consistent); the §5 analysis still runs, only to supply
       ``delay_fences`` for the TSO/PSO backends
O1     split-phase pipelining constrained by the Shasha–Snir delay set
       (§4) — Figure 12's baseline ("unoptimized" bar)
O2     pipelining constrained by the synchronization-aware delay set
       (§5) — Figure 12's "pipelined communication"
O3     O2 + put→store one-way conversion (§6) — "one-way communication"
O4     O3 + redundant-get and dead-put elimination (§7)
=====  =====================================================================

How a level's passes are sequenced is data, not code: see
:mod:`repro.pipeline.specs` for the declarative pipeline each level
names, and :mod:`repro.pipeline.session` for the driver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Optional

from repro.analysis.delays import AnalysisResult
from repro.ir.cfg import Module


class OptLevel(enum.Enum):
    O0 = "O0"
    O1 = "O1"
    O2 = "O2"
    O3 = "O3"
    O4 = "O4"

    @property
    def rank(self) -> int:
        return int(self.value[1])


@dataclass
class CodegenReport:
    """What the passes did — consumed by tests and benches."""

    converted_reads: int = 0
    converted_writes: int = 0
    gets_fused: int = 0
    gets_hoisted: int = 0
    sync_moves: int = 0
    one_way_conversions: int = 0
    counters_before: int = 0
    counters_after: int = 0
    gets_eliminated: int = 0
    puts_eliminated: int = 0


@dataclass
class CompiledProgram:
    """An optimized module plus everything produced along the way."""

    module: Module
    opt_level: OptLevel
    analysis: Optional[AnalysisResult] = None
    report: CodegenReport = field(default_factory=CodegenReport)
    #: Instruction uids the weak-memory backends fence on — the targets
    #: of the analysis's delay edges.  Metadata only: the IR itself is
    #: identical with or without them, and an SC run ignores them.
    delay_fences: FrozenSet[int] = frozenset()

    def without_delay_fences(self) -> "CompiledProgram":
        """A delay-stripped twin: same IR, no weak-memory fences.

        The debug/fuzz variant the robustness oracle runs under TSO/PSO
        to demonstrate that the delays were load-bearing — a racy
        program compiled this way may exhibit genuine non-SC outcomes.
        """
        return replace(self, delay_fences=frozenset())

    def run(self, num_procs: int, machine=None, seed: int = 0,
            trace: bool = False, max_cycles: int = 500_000_000,
            fault_plan=None):
        """Simulates the compiled program (defaults to the CM-5 model).

        ``fault_plan`` (a :class:`repro.runtime.network.FaultPlan`)
        runs the program over a lossy network behind the ack/retransmit
        protocol; deterministic programs produce the same snapshot
        either way.
        """
        from repro.runtime.machine import CM5
        from repro.runtime.simulator import run_module

        return run_module(
            self.module,
            num_procs,
            machine or CM5,
            seed=seed,
            trace=trace,
            max_cycles=max_cycles,
            fault_plan=fault_plan,
            delay_fences=self.delay_fences,
        )

    def pretty(self) -> str:
        return str(self.module)

    def splitc(self) -> str:
        """The optimized program in Split-C-flavored surface syntax."""
        from repro.codegen.emit import emit_module

        return emit_module(self.module)
