"""The three workloads that run generated code on the machine simulator.

* ``fig12_64`` — the paper's experiment through the real pipeline: the
  only workload where codegen decisions move simulated cycles.
* ``sim_interp256`` — ocean at 256 processors: interpreter-bound.
* ``sim_msg256`` — em3d at 256 processors: message-path-bound.

The last two use the same ``runtime`` layer in opposite ways, so a
decode-only speed-up must show on the first and not on the second, and
a message-path change that slows the interpreter shows on the first.

Simulated numbers (cycles, instructions, messages) are exact and the
same for every seed: the kernels are the paper's fixed programs and the
seed only orders the cells.  Host numbers are wall-clock.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import OptLevel, compile_source
from repro.apps import APPS, em3d, ocean
from repro.apps.base import Snapshot, assert_close
from repro.ir.inline import inline_all
from repro.ir.lowering import lower_program
from repro.lang import parse_and_check
from repro.runtime import CM5, DASH, T3D, FaultPlan, MachineConfig, Simulator

from bench.harness import Sample, Workload
from bench.trace import OFF, Tracer

Check = Callable[[Snapshot], None]


@dataclass(frozen=True)
class Kernel:
    name: str
    source: str
    procs: int
    #: raises AssertionError unless the snapshot matches the kernel's
    #: independent Python reference model
    check: Check


def em3d_kernel(procs: int, block: int, steps: int) -> Kernel:
    def check(snapshot: Snapshot) -> None:
        fields = em3d.scaled_reference(procs, block, steps)
        for name, expected in zip("EH", fields):
            for index, value in enumerate(expected):
                assert_close(snapshot[name][index], value,
                             f"{name}[{index}]")

    return Kernel(f"em3d{procs}", em3d.scaled_source(procs, block, steps),
                  procs, check)


def ocean_kernel(procs: int, rows_per: int, steps: int) -> Kernel:
    def check(snapshot: Snapshot) -> None:
        grid = ocean.scaled_reference(procs, rows_per, steps)
        flat = [value for row in grid for value in row]
        for index, value in enumerate(flat):
            assert_close(snapshot["G"][index], value, f"G[{index}]")

    return Kernel(f"ocean{procs}",
                  ocean.scaled_source(procs, rows_per, steps), procs, check)


def app_kernel(name: str, procs: int) -> Kernel:
    app = APPS[name]
    return Kernel(f"{name}{procs}", app.source(procs), procs,
                  lambda snapshot: app.check(snapshot, procs))


@dataclass(frozen=True)
class Cell:
    kernel: Kernel
    level: OptLevel
    machine: MachineConfig

    @property
    def op(self) -> str:
        return f"{self.kernel.name}/{self.level.value}/{self.machine.name}"


def simulate(tracer, op: str, program, procs: int, machine: MachineConfig,
             **options):
    with tracer.span("runtime.build", op):
        simulator = Simulator(program.module, procs, machine,
                              delay_fences=program.delay_fences, **options)
    with tracer.span("runtime.run", op):
        return simulator.run()


class SimWorkload(Workload):
    """Cells of (kernel, level, machine), simulated once per pass."""

    unit = "simulated instructions"
    #: compile inside the timed section (once per kernel and level)?
    compile_timed = False

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.cells: List[Cell] = []
        self.programs: Dict[Tuple[str, OptLevel], object] = {}
        #: op -> SimulationResult of the latest pass
        self.results: Dict[str, object] = {}
        #: op -> cycles of the first pass (runs must repeat exactly)
        self.first_cycles: Dict[str, int] = {}

    def make_cells(self) -> List[Cell]:
        raise NotImplementedError

    def setup(self) -> None:
        cells = self.make_cells()
        random.Random(self.seed).shuffle(cells)
        self.cells = cells
        self.programs = {}
        for cell in cells:
            self._program(cell)
        # One run of the cheapest cell, so the interpreter's decode
        # tables and lazy imports exist before timing.
        warm = min(cells, key=lambda c: (c.kernel.procs, c.level.value))
        simulate(OFF, warm.op, self._program(warm),
                 warm.kernel.procs, warm.machine)
        if self.compile_timed:
            self.programs = {}

    def _program(self, cell: Cell):
        key = (cell.kernel.name, cell.level)
        if key not in self.programs:
            self.programs[key] = compile_source(
                cell.kernel.source, cell.level)
        return self.programs[key]

    def sizes(self) -> Dict[str, object]:
        kernels = {cell.kernel.name: cell.kernel.procs
                   for cell in self.cells}
        return {"cells": len(self.cells), "kernels": kernels}

    def run_pass(self, tracer, index: int) -> List[Sample]:
        if self.compile_timed:
            self.programs = {}
        samples = []
        for cell in self.cells:
            start = time.perf_counter()
            program = self.programs.get((cell.kernel.name, cell.level))
            if program is None:
                with tracer.span("pipeline.compile_source", cell.op):
                    program = self._program(cell)
            result = simulate(tracer, cell.op, program,
                              cell.kernel.procs, cell.machine)
            samples.append(Sample(cell.op, time.perf_counter() - start,
                                  float(result.instructions)))
            self.results[cell.op] = result
        if index == 0:
            self.first_cycles = {
                op: result.cycles for op, result in self.results.items()
            }
        return samples

    def verify(self) -> int:
        """Cells whose snapshot fails the kernel's reference model, or
        whose cycle count changed between passes."""
        failed = 0
        for cell in self.cells:
            result = self.results[cell.op]
            try:
                cell.kernel.check(result.snapshot())
            except AssertionError:
                failed += 1
                continue
            if result.cycles != self.first_cycles[cell.op]:
                failed += 1
        return failed

    # -- traced run --------------------------------------------------------

    def layers(self, tracer: Tracer, samples: Sequence[Sample]
               ) -> Dict[str, float]:
        traced_passes = sum(
            1 for span in tracer.spans if span.name == "bench.pass")
        totals = tracer.seconds_by_name()
        results = list(self.results.values())
        run_s = totals["runtime.run"] / traced_passes
        instructions = sum(r.instructions for r in results)
        messages = sum(r.total_messages for r in results)
        values = {
            "runtime.build_s": totals["runtime.build"] / traced_passes,
            "runtime.run_s": run_s,
            "runtime.instructions": instructions,
            "runtime.messages": messages,
            "runtime.ns_per_instr": run_s / instructions * 1e9,
            "runtime.us_per_msg": run_s / messages * 1e6,
            "runtime.kmsg_per_s": messages / run_s / 1e3,
            "runtime.wait_share": (
                sum(r.total_wait_cycles for r in results)
                / sum(sum(r.per_proc_cycles) for r in results)
            ),
            "runtime.sim_cycles": sum(r.cycles for r in results),
        }
        for level in OptLevel:
            on_cm5 = [self.results[cell.op] for cell in self.cells
                      if cell.level is level and cell.machine is CM5]
            if level is not OptLevel.O0:
                values[f"runtime.cycles_{level.value}"] = sum(
                    r.cycles for r in on_cm5)
            if level in (OptLevel.O1, OptLevel.O3):
                values[f"runtime.messages_{level.value}"] = sum(
                    r.total_messages for r in on_cm5)
        return values


class Fig12(SimWorkload):
    name = "fig12_64"
    why = ("the paper's Fig. 12 through the real pipeline at 64 procs: "
           "the only workload where codegen decisions move simulated "
           "cycles; compile is a small share of its wall time")
    compile_timed = True

    @cached_property
    def kernels(self) -> List[Kernel]:
        if self.smoke:
            return [em3d_kernel(8, 4, 1), ocean_kernel(8, 2, 1),
                    app_kernel("epithelial", 4), app_kernel("cholesky", 4),
                    app_kernel("health", 4)]
        return [em3d_kernel(64, 8, 2), ocean_kernel(64, 4, 1),
                app_kernel("epithelial", 32), app_kernel("cholesky", 32),
                app_kernel("health", 32)]

    def make_cells(self) -> List[Cell]:
        cells = []
        for kernel in self.kernels:
            for level in (OptLevel.O1, OptLevel.O2, OptLevel.O3,
                          OptLevel.O4):
                cells.append(Cell(kernel, level, CM5))
            for machine in (T3D, DASH):
                for level in (OptLevel.O1, OptLevel.O3):
                    cells.append(Cell(kernel, level, machine))
        return cells

    def layers(self, tracer: Tracer, samples: Sequence[Sample]
               ) -> Dict[str, float]:
        values = super().layers(tracer, samples)
        ratios = []
        for kernel in self.kernels:
            o1 = self.results[Cell(kernel, OptLevel.O1, CM5).op].cycles
            o3 = self.results[Cell(kernel, OptLevel.O3, CM5).op].cycles
            ratios.append(o3 / o1)
        # Base: cycles at O1 (Fig. 12's "unoptimized" bar); paper 0.65-0.80.
        values["runtime.fig12_cycles_ratio"] = math.exp(
            sum(math.log(ratio) for ratio in ratios) / len(ratios))

        # One kernel under the runtime's other modes: lossy network,
        # TSO store buffers, tree barrier.
        kernel = self.kernels[0]
        program = self.programs[(kernel.name, OptLevel.O3)]
        base = self._timed(tracer, "clean", program, kernel, CM5)
        lossy = self._timed(
            tracer, "lossy", program, kernel, CM5,
            fault_plan=FaultPlan(drop=0.05, seed=self.seed))
        tso = self._timed(
            tracer, "tso", program, kernel,
            CM5.with_memory_model("tso", drain_seed=self.seed))
        tree = self._timed(
            tracer, "tree", program, kernel,
            CM5.with_barrier_topology("tree"))
        for _seconds, result in (lossy, tso, tree):
            kernel.check(result.snapshot())
        values["runtime.lossy_run_s"] = lossy[0]
        values["runtime.retransmits"] = lossy[1].retransmits
        # Base: host seconds of the same program under SC.
        values["runtime.tso_overhead"] = tso[0] / base[0]
        values["runtime.tree_barrier_cycles"] = tree[1].cycles
        return values

    def _timed(self, tracer, mode: str, program, kernel: Kernel,
               machine: MachineConfig, **options):
        start = time.perf_counter()
        result = simulate(tracer, f"{kernel.name}/O3/{mode}", program,
                          kernel.procs, machine, **options)
        return time.perf_counter() - start, result


class SimInterp(SimWorkload):
    name = "sim_interp256"
    why = ("ocean at 256 procs, pre-compiled: interpreter-bound, the "
           "message path does little; a decode-only speed-up shows here")

    @cached_property
    def kernel(self) -> Kernel:
        return (ocean_kernel(16, 2, 1) if self.smoke
                else ocean_kernel(256, 4, 1))

    def make_cells(self) -> List[Cell]:
        kernel = self.kernel
        return [Cell(kernel, level, CM5)
                for level in (OptLevel.O0, OptLevel.O3, OptLevel.O4)]

    def layers(self, tracer: Tracer, samples: Sequence[Sample]
               ) -> Dict[str, float]:
        values = super().layers(tracer, samples)
        # The same program as lowered IR (what the legacy runtime bench
        # simulated) against O0 through the real pipeline: equal cycles
        # and instruction counts, different host time.
        kernel = self.kernel
        lowered = _Lowered(inline_all(lower_program(
            parse_and_check(kernel.source))))
        piped = self.programs[(kernel.name, OptLevel.O0)]
        seconds = {"lowered": [], "O0": []}
        for _ in range(3):
            for label, program in (("lowered", lowered), ("O0", piped)):
                start = time.perf_counter()
                simulate(tracer, f"{kernel.name}/{label}", program,
                         kernel.procs, CM5)
                seconds[label].append(time.perf_counter() - start)
        # Base: host seconds of the lowered-IR run.
        values["runtime.o0_vs_lowered_ratio"] = (
            min(seconds["O0"]) / min(seconds["lowered"]))
        return values


@dataclass(frozen=True)
class _Lowered:
    module: object
    delay_fences: Optional[frozenset] = None


class SimMsg(SimWorkload):
    name = "sim_msg256"
    why = ("em3d at 256 procs, pre-compiled: message-path-bound, same "
           "runtime layer used the other way; a decode-only speed-up must "
           "show nothing here")

    def make_cells(self) -> List[Cell]:
        kernel = (em3d_kernel(16, 4, 1) if self.smoke
                  else em3d_kernel(256, 8, 2))
        return [Cell(kernel, level, CM5)
                for level in (OptLevel.O1, OptLevel.O3, OptLevel.O4)]
