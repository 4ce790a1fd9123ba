"""``compile_cold``: cold O0–O4 compiles of a seeded corpus.

lang, ir, analysis, codegen and pipeline do all the work; runtime and
serve do none, so a change to the simulator or the daemon must show
nothing here.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Sequence

from repro import OptLevel, compile_source
from repro.compiler import open_session
from repro.analysis.delays import AnalysisLevel
from repro.apps import APPS
from repro.ir.inline import inline_all
from repro.ir.lowering import lower_program
from repro.lang import parse_and_check
from repro.perf import profiled
from repro.perf.parallel import compile_many, compile_with_cache

from bench import corpus
from bench.harness import CODEGEN_PASSES, Sample, Workload, best_by_op
from bench.trace import Tracer

LEVELS = tuple(OptLevel)

#: Progen programs whose O0 and O4 builds are run and compared.
SNAPSHOT_SAMPLE = 10


def instr_count(module) -> int:
    return sum(
        1 for function in module.functions.values()
        for _ in function.instructions()
    )


class CompileCold(Workload):
    name = "compile_cold"
    why = ("cold O0-O4 compiles of kernels, random programs and a barrier "
           "ladder: lang/ir/analysis/codegen/pipeline do all the work, "
           "runtime and serve none")
    unit = "compiles"

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.progen_count = 3 if smoke else 12
        self.ladder_sizes = (16, 32) if smoke else (32, 64, 128)
        self.programs: List[corpus.Program] = []
        #: (program name, level) -> CompiledProgram of the latest pass
        self.outputs: Dict[tuple, object] = {}
        #: same key -> IR text of the first pass (compiles must repeat)
        self.first_text: Dict[tuple, str] = {}

    def setup(self) -> None:
        rng = random.Random(self.seed)
        programs = (
            corpus.app_programs(8)
            + corpus.progen_draw(rng, self.progen_count)
            + corpus.ladder_programs(self.ladder_sizes)
        )
        rng.shuffle(programs)
        self.programs = programs
        # Lazy imports, regex and symbolic caches fill before timing:
        # "cold" means no compile cache, not a cold interpreter.
        for program in programs:
            compile_source(program.source, OptLevel.O3)

    def sizes(self) -> Dict[str, object]:
        return {
            "programs": len(self.programs),
            "levels": [level.value for level in LEVELS],
            "progen": self.progen_count,
            "ladder": list(self.ladder_sizes),
            "corpus_digest": corpus.digest(self.programs),
        }

    def run_pass(self, tracer, index: int) -> List[Sample]:
        samples = []
        for program in self.programs:
            for level in LEVELS:
                op = f"{program.name}/{level.value}"
                start = time.perf_counter()
                with tracer.span("pipeline.compile_source", op):
                    compiled = compile_source(program.source, level)
                samples.append(
                    Sample(op, time.perf_counter() - start, 1.0))
                self.outputs[(program.name, level)] = compiled
        if index == 0:
            self.first_text = {
                key: compiled.pretty()
                for key, compiled in self.outputs.items()
            }
        return samples

    def verify(self) -> int:
        """Wrong outputs, each counted once per (program, level).

        Kernels at every level must match their independent Python
        reference model.  Random programs and the ladder have no such
        model: their O4 snapshot must equal their O0 snapshot, which is
        weaker, because both come from the compiler under test.  Every
        compile must also produce the same IR text as the first pass.
        """
        failed = 0
        for key, compiled in self.outputs.items():
            if compiled.pretty() != self.first_text[key]:
                failed += 1
        rng = random.Random(self.seed)
        progen = [p for p in self.programs if p.group == "progen"]
        sampled = rng.sample(progen, min(SNAPSHOT_SAMPLE, len(progen)))
        for program in self.programs:
            if program.group == "apps":
                for level in LEVELS:
                    snapshot = self._snapshot(program, level)
                    try:
                        APPS[program.name].check(snapshot, program.procs)
                    except AssertionError:
                        failed += 1
            elif program.group == "synthetic" or program in sampled:
                if (self._snapshot(program, OptLevel.O0)
                        != self._snapshot(program, OptLevel.O4)):
                    failed += 1
        return failed

    def _snapshot(self, program: corpus.Program, level: OptLevel):
        return self.outputs[(program.name, level)].run(
            program.procs).snapshot()

    # -- traced run --------------------------------------------------------

    def layers(self, tracer: Tracer, samples: Sequence[Sample]
               ) -> Dict[str, float]:
        values: Dict[str, float] = {}
        self._layer_walk(tracer, values)
        self._sweeps(tracer, samples, values)
        self._pool_and_disk(tracer, values)
        values["ir.instrs_out"] = sum(
            instr_count(compiled.module)
            for compiled in self.outputs.values()
        )
        for field in ("sync_moves", "one_way_conversions",
                      "gets_eliminated", "puts_eliminated",
                      "counters_after"):
            values[f"codegen.{field}"] = sum(
                getattr(compiled.report, field)
                for compiled in self.outputs.values()
            )
        return values

    def _layer_walk(self, tracer: Tracer, values: Dict[str, float]) -> None:
        """Each layer's public entry point, timed once over the corpus."""
        counts = dict.fromkeys(
            ("lang.source_lines", "ir.instrs_in", "analysis.accesses",
             "analysis.delays_sas", "analysis.delays_sync"), 0)
        for program in self.programs:
            op = f"{program.name}/walk"
            counts["lang.source_lines"] += len(program.source.splitlines())
            with tracer.span("lang.parse", op):
                ast = parse_and_check(program.source)
            with tracer.span("ir.lower", op):
                module = lower_program(ast)
            with tracer.span("ir.inline", op):
                inline_all(module)
            counts["ir.instrs_in"] += instr_count(module)
            session = open_session(program.source)
            session.inlined_module()  # frontend cached from here on
            with tracer.span("analysis.sas", op):
                sas = session.analyze(AnalysisLevel.SAS)
            with tracer.span("analysis.sync", op):
                sync = session.analyze(AnalysisLevel.SYNC)
            counts["analysis.accesses"] += sync.stats.num_accesses
            counts["analysis.delays_sas"] += sas.stats.delay_size
            counts["analysis.delays_sync"] += sync.stats.delay_size
            for level in LEVELS[1:]:
                with tracer.span(f"codegen.{level.value}", op):
                    session.compile(level)
        totals = tracer.seconds_by_name()
        values.update(counts)
        values["lang.parse_s"] = totals["lang.parse"]
        values["ir.lower_s"] = totals["ir.lower"]
        values["ir.inline_s"] = totals["ir.inline"]
        values["analysis.sas_s"] = totals["analysis.sas"]
        values["analysis.sync_s"] = totals["analysis.sync"]
        for level in LEVELS[1:]:
            values[f"codegen.{level.value}_s"] = (
                totals[f"codegen.{level.value}"])
        sas_delays = counts["analysis.delays_sas"]
        values["analysis.delay_reduction"] = (
            1.0 - counts["analysis.delays_sync"] / sas_delays
            if sas_delays else 0.0
        )

    def _sweeps(self, tracer: Tracer, samples: Sequence[Sample],
                values: Dict[str, float]) -> None:
        """One cold sweep against one shared-session sweep, and the
        codegen pass table of a profiled cold sweep."""
        per_op = best_by_op(samples)
        group_of = {p.name: p.group for p in self.programs}
        for group in ("apps", "progen", "synthetic"):
            values[f"pipeline.{group}_s"] = sum(
                seconds for op, seconds in per_op.items()
                if group_of[op.split("/")[0]] == group
            )
        cold = sum(per_op.values())
        values["pipeline.cold_sweep_s"] = cold

        with profiled() as shared_profile:
            start = time.perf_counter()
            with tracer.span("pipeline.shared_sweep", "shared"):
                for program in self.programs:
                    open_session(program.source).compile_levels(LEVELS)
            shared = time.perf_counter() - start
        values["pipeline.shared_sweep_s"] = shared
        # Base: the cold sweep; above 1 the shared session is faster.
        values["pipeline.shared_speedup"] = cold / shared
        counters = shared_profile.counters
        hits = counters.get("pipeline.artifact_hits", 0)
        misses = counters.get("pipeline.artifact_misses", 0)
        values["pipeline.artifact_hit_share"] = hits / (hits + misses)

        with profiled() as cold_profile:
            with tracer.span("pipeline.profiled_sweep", "profiled"):
                for program in self.programs:
                    for level in LEVELS:
                        compile_source(program.source, level)
        for name in CODEGEN_PASSES:
            record = cold_profile.passes.get(f"pass.{name}")
            values[f"codegen.pass.{name}_s"] = (
                record.seconds if record else 0.0)

    def _pool_and_disk(self, tracer: Tracer,
                       values: Dict[str, float]) -> None:
        jobs = [(program.source, level)
                for program in self.programs for level in LEVELS]
        start = time.perf_counter()
        with tracer.span("perf.compile_many_pool2", "pool2"):
            compile_many(jobs, processes=2, use_cache=False)
        pooled = time.perf_counter() - start
        values["perf.pool2_s"] = pooled
        # Base: the serial cold sweep of the same jobs.
        values["perf.pool2_speedup"] = (
            values["pipeline.cold_sweep_s"] / pooled)

        warm = []
        for program in self.programs:
            compile_with_cache(program.source, OptLevel.O3)
            start = time.perf_counter()
            with tracer.span("perf.compile_with_cache_warm", program.name):
                compile_with_cache(program.source, OptLevel.O3)
            warm.append(time.perf_counter() - start)
        values["perf.disk_cache_hit_ms"] = statistics.median(warm) * 1e3
