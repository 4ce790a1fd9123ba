"""The differential fuzzing campaign driver.

One campaign iteration:

1. generate a seeded random program under the configured profile;
2. check **delay-set monotonicity** (SYNC ⊆ Shasha–Snir ∪ D1) on its
   analysis;
3. compile it at every configured optimization level on the session
   the analyses came from (one parse, one SAS and one SYNC analysis
   per program; the compile store is never touched);
4. run every compiled variant under N adversarial schedules (seeded
   network jitter, varied machine models, the program's processor
   count) and cross-check **final-snapshot agreement** and **trace
   sequential consistency** (step-limit skips counted separately);
5. on any failure, shrink the program with delta debugging (re-running
   the same oracle) and write a self-contained repro bundle under
   ``fuzz-failures/``.

Budgets are either a fixed iteration count or a wall-clock allowance;
the campaign stops early after ``max_failures`` distinct failures.
``compile_fn``/``analyze_fn`` are injectable so the test suite can
prove a deliberately broken compiler *is* caught and minimized.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.fuzz.bundle import write_bundle
from repro.fuzz.minimize import minimize_program
from repro.fuzz.oracles import (
    SC_VIOLATION,
    OracleFailure,
    ScTally,
    check_delay_monotonicity,
    check_trace_sc,
    compare_snapshots,
    trace_digest,
)
from repro.fuzz.progen import GeneratedProgram, generate_program

#: The paper-facing names for the differential level set: naive
#: blocking code, Shasha–Snir-constrained pipelining, and the full
#: synchronization-aware optimization.
LEVEL_NAMES: Dict[str, str] = {
    "NAIVE": "O0",
    "SHASHA_SNIR": "O1",
    "SYNC": "O3",
}

DEFAULT_LEVELS: Tuple[str, ...] = tuple(LEVEL_NAMES.values())

#: Adversarial jitter magnitudes (cycles of random extra wire time).
JITTERS: Tuple[int, ...] = (0, 100, 250, 400)

MACHINE_NAMES: Tuple[str, ...] = ("cm5", "t3d", "dash")


#: Fault severities the ``faulty`` profile samples from: (drop, dup)
#: probabilities applied to every message kind, transport acks included.
FAULT_RATES: Tuple[Tuple[float, float], ...] = (
    (0.05, 0.0), (0.1, 0.05), (0.2, 0.1),
)


@dataclass(frozen=True)
class Schedule:
    """One adversarial execution schedule."""

    net_seed: int
    machine: str
    jitter: int
    #: fault-plan spec string (None = perfect network)
    faults: Optional[str] = None
    fault_seed: int = 0
    #: memory model the simulated hardware executes ("sc" = historical)
    memory_model: str = "sc"
    drain_seed: int = 0

    def machine_config(self):
        from repro.runtime.machine import get_machine

        machine = get_machine(self.machine).with_jitter(self.jitter)
        if self.memory_model != "sc":
            machine = machine.with_memory_model(
                self.memory_model, self.drain_seed
            )
        return machine

    def fault_plan(self):
        """The parsed FaultPlan, or None on a perfect network."""
        if self.faults is None:
            return None
        from repro.runtime.network import FaultPlan

        return FaultPlan.parse(self.faults, seed=self.fault_seed)

    def as_dict(self) -> dict:
        data = {
            "net_seed": self.net_seed,
            "machine": self.machine,
            "jitter": self.jitter,
        }
        if self.faults is not None:
            data["faults"] = self.faults
            data["fault_seed"] = self.fault_seed
        if self.memory_model != "sc":
            data["memory_model"] = self.memory_model
            data["drain_seed"] = self.drain_seed
        return data


@dataclass
class FuzzConfig:
    """Everything a campaign needs; every knob has a CLI flag."""

    seed: int = 0
    profile: str = "mixed"
    #: Stop after this many programs (None = wall-clock budget only).
    iterations: Optional[int] = None
    #: Stop after this many seconds (None = iteration budget only).
    budget_seconds: Optional[float] = None
    schedules_per_program: int = 3
    levels: Tuple[str, ...] = DEFAULT_LEVELS
    procs_choices: Tuple[int, ...] = (2, 3, 4)
    phase_range: Tuple[int, int] = (3, 5)
    #: Barrier topology every schedule's machine runs ("central" =
    #: the seed rendezvous; "tree" exercises the combining tree against
    #: the same snapshot/SC oracles).
    barrier_topology: str = "central"
    sc_step_limit: int = 20_000
    failures_dir: str = "fuzz-failures"
    max_failures: int = 5
    minimize: bool = True
    minimize_budget: int = 48
    #: Run IR verification after every mutating codegen pass (the
    #: ``--verify-passes`` flag): the program's session carries
    #: :class:`~repro.pipeline.PipelineOptions` ``verify_each_pass``,
    #: so a pass that corrupts the IR is pinned to its name instead of
    #: surfacing as a downstream oracle failure.
    verify_each_pass: bool = False
    #: Run every compiled variant as its delay-stripped twin (same IR,
    #: weak-memory fence metadata removed).  The robustness canary sets
    #: this to prove the compiled delays are load-bearing under TSO.
    strip_delays: bool = False
    #: Injectable compiler: (source, level_value) -> CompiledProgram.
    compile_fn: Optional[Callable[[str, str], object]] = None
    #: Injectable analyzer: (source, AnalysisLevel) -> AnalysisResult.
    analyze_fn: Optional[Callable[[str, object], object]] = None

    def effective_iterations(self) -> Optional[int]:
        if self.iterations is None and self.budget_seconds is None:
            return 20
        return self.iterations


@dataclass
class CampaignStats:
    """Campaign accounting; ``as_dict`` is the CI-facing JSON."""

    seed: int = 0
    profile: str = "mixed"
    levels: Tuple[str, ...] = DEFAULT_LEVELS
    programs: int = 0
    compiles: int = 0
    schedules_run: int = 0
    runs: int = 0
    #: runs executed over a lossy network (subset of ``runs``)
    fault_runs: int = 0
    #: retransmissions observed across all lossy runs
    retransmits: int = 0
    #: runs executed under a TSO/PSO store buffer (subset of ``runs``)
    weak_runs: int = 0
    #: the SB-litmus canary verdict for weak profiles (None otherwise):
    #: delayed build robust, stripped twin caught by the SC oracle.
    weak_canary: Optional[dict] = None
    sc: ScTally = field(default_factory=ScTally)
    monotonicity_checks: int = 0
    failures: List[dict] = field(default_factory=list)
    bundles: List[str] = field(default_factory=list)
    minimizer_tests: int = 0
    elapsed_seconds: float = 0.0

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "seed": self.seed,
            "profile": self.profile,
            "levels": list(self.levels),
            "programs": self.programs,
            "compiles": self.compiles,
            "schedules_run": self.schedules_run,
            "runs": self.runs,
            "fault_runs": self.fault_runs,
            "retransmits": self.retransmits,
            "weak_runs": self.weak_runs,
            "weak_canary": self.weak_canary,
            "sc_checks": self.sc.checks,
            "sc_skips": self.sc.skips,
            "sc_violations": self.sc.violations,
            "monotonicity_checks": self.monotonicity_checks,
            "failures": self.failures,
            "bundles": self.bundles,
            "minimizer_tests": self.minimizer_tests,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def check_program(
    program: GeneratedProgram,
    schedules: Sequence[Schedule],
    config: FuzzConfig,
    stats: Optional[CampaignStats] = None,
) -> Optional[OracleFailure]:
    """Runs every oracle on one program; None when all pass."""
    source = program.source
    tally = stats.sc if stats is not None else ScTally()

    from repro.analysis.delays import AnalysisLevel
    from repro.compiler import open_session
    from repro.pipeline import PipelineOptions

    # One session per program (lazy: an injected compiler/analyzer
    # leaves its half unused): the frontend runs once, SYNC starts from
    # SAS's access and conflict sets, and every level's codegen reuses
    # both analyses on a copy of the one inlined module.
    options = (PipelineOptions(verify_each_pass=True)
               if config.verify_each_pass else None)
    session = open_session(source, options=options)
    analyze = (functools.partial(config.analyze_fn, source)
               if config.analyze_fn is not None else session.analyze)
    compile_level = (functools.partial(config.compile_fn, source)
                     if config.compile_fn is not None else session.compile)

    # Oracle 3: delay-set monotonicity (static, once per program).
    try:
        sas = analyze(AnalysisLevel.SAS)
        sync = analyze(AnalysisLevel.SYNC)
    except ReproError as exc:
        return OracleFailure("crash", f"analysis raised: {exc}")
    if stats is not None:
        stats.monotonicity_checks += 1
    detail = check_delay_monotonicity(sas, sync)
    if detail is not None:
        return OracleFailure("monotonicity", detail)

    try:
        compiled = [compile_level(level) for level in config.levels]
    except ReproError as exc:
        return OracleFailure("crash", f"compile raised: {exc}")
    if config.strip_delays:
        # The delay-stripped twin: identical IR, no weak-memory fence
        # metadata (injected fake compilers without the method are run
        # as-is — they never carry fences in the first place).
        compiled = [
            variant.without_delay_fences()
            if hasattr(variant, "without_delay_fences") else variant
            for variant in compiled
        ]
    if stats is not None:
        stats.compiles += len(config.levels)

    reference = None
    reference_at = None
    for schedule in schedules:
        machine = schedule.machine_config()
        if config.barrier_topology != "central":
            machine = machine.with_barrier_topology(config.barrier_topology)
        plan = schedule.fault_plan()
        if stats is not None:
            stats.schedules_run += 1
        for level, variant in zip(config.levels, compiled):
            # Lossy runs skip tracing/SC (the snapshot-agreement oracle
            # against the fault-free reference is their contract); the
            # kwarg stays conditional so injected fake compilers keep
            # their simple run() signatures.
            run_kwargs = {"trace": True}
            if plan is not None:
                run_kwargs = {"trace": False, "fault_plan": plan}
            try:
                result = variant.run(
                    program.procs, machine, seed=schedule.net_seed,
                    **run_kwargs,
                )
            except ReproError as exc:
                return OracleFailure(
                    "crash", f"simulation raised: {exc}",
                    level=level, schedule=schedule.as_dict(),
                )
            if stats is not None:
                stats.runs += 1
                if plan is not None:
                    stats.fault_runs += 1
                    stats.retransmits += result.network.stats.retransmits
                if schedule.memory_model != "sc":
                    stats.weak_runs += 1

            # Oracle 1: deterministic programs agree everywhere.
            if program.deterministic:
                snapshot = result.snapshot()
                if reference is None:
                    reference = snapshot
                    reference_at = (level, schedule)
                else:
                    detail = compare_snapshots(reference, snapshot)
                    if detail is not None:
                        ref_level, ref_schedule = reference_at
                        return OracleFailure(
                            "snapshot",
                            f"{detail} (reference from {ref_level} "
                            f"under {ref_schedule.as_dict()})",
                            level=level,
                            schedule=schedule.as_dict(),
                            trace_digest=(
                                trace_digest(result.trace)
                                if result.trace is not None else None
                            ),
                        )

            # Oracle 2: every checkable trace is SC.  uid-sorting only
            # recovers source order for straight-line programs; loopy
            # programs are checked at O0, where issue order *is*
            # program order.  Lossy runs carry no trace (see above).
            if plan is None and (program.straight_line or level == "O0"):
                outcome = check_trace_sc(
                    result.trace, program.straight_line,
                    config.sc_step_limit,
                )
                tally.record(outcome)
                if outcome == SC_VIOLATION:
                    return OracleFailure(
                        "sc",
                        "trace admits no sequentially consistent "
                        "total order",
                        level=level,
                        schedule=schedule.as_dict(),
                        trace_digest=trace_digest(result.trace),
                    )
    return None


def _profile_is_faulty(name: str) -> bool:
    from repro.fuzz.progen import PROFILES

    profile = PROFILES.get(name)
    return profile is not None and profile.faulty


def _profile_is_weak(name: str) -> bool:
    from repro.fuzz.progen import PROFILES

    profile = PROFILES.get(name)
    return profile is not None and profile.weak


def _make_schedules(rng: random.Random,
                    config: FuzzConfig) -> List[Schedule]:
    schedules = [
        Schedule(
            net_seed=rng.getrandbits(16),
            machine=rng.choice(MACHINE_NAMES),
            jitter=rng.choice(JITTERS),
        )
        for _ in range(config.schedules_per_program)
    ]
    if _profile_is_faulty(config.profile):
        # Mirror each fault-free schedule with a lossy twin; the
        # snapshot oracle then asserts perfect-network and lossy runs
        # of the same program agree (and the fault-free schedules above
        # keep providing the reference snapshot and SC coverage).
        for base in list(schedules):
            drop, dup = rng.choice(FAULT_RATES)
            schedules.append(Schedule(
                net_seed=base.net_seed,
                machine=base.machine,
                jitter=base.jitter,
                faults=f"drop={drop},dup={dup}",
                fault_seed=rng.getrandbits(16),
            ))
    if _profile_is_weak(config.profile):
        # Mirror each SC schedule with a TSO and a PSO twin (same
        # network seed/machine/jitter, fresh drain seed).  For the
        # deterministic weak profile the snapshot oracle then asserts
        # SC-vs-TSO-vs-PSO agreement — the robustness oracle.
        for base in list(schedules):
            for model in ("tso", "pso"):
                schedules.append(Schedule(
                    net_seed=base.net_seed,
                    machine=base.machine,
                    jitter=base.jitter,
                    memory_model=model,
                    drain_seed=rng.getrandbits(16),
                ))
    return schedules


#: Drain seeds the SB-litmus canary sweeps.  Fixed (not drawn from the
#: campaign RNG) so the canary verdict is identical for every campaign:
#: on cm5's default drain window a majority of these seeds reorder the
#: stripped twin's reads past its buffered writes.
CANARY_DRAIN_SEEDS: Tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7)


def _canary_schedules() -> List[Schedule]:
    return [
        Schedule(net_seed=0, machine="cm5", jitter=0,
                 memory_model="tso", drain_seed=drain_seed)
        for drain_seed in CANARY_DRAIN_SEEDS
    ]


def _check_weak_canary(
    config: FuzzConfig,
    stats: CampaignStats,
    log: Callable[[str], None],
) -> None:
    """The robustness oracle's teeth check, run once per weak campaign.

    Compiles the SB litmus shape twice and sweeps both builds over TSO
    drain schedules:

    * the **delayed** build must stay sequentially consistent on every
      drain seed (the compiled delays make it robust) — a violation is
      a genuine campaign failure;
    * the **delay-stripped twin** must exhibit the non-SC ``[0, 0]``
      outcome on some seed and the SC oracle must catch it — if it
      does not, the weak backend or the oracle has lost its teeth,
      which is also a campaign failure.  The caught violation is
      minimized and bundled like any failure (proof the whole
      failure pipeline handles weak-memory repros), but counted under
      ``weak_canary``, not ``failures``.
    """
    import dataclasses

    from repro.fuzz.litmus import sb_program

    program = sb_program()
    schedules = _canary_schedules()
    verdict: dict = {
        "program": "sb",
        "memory_model": "tso",
        "drain_seeds": list(CANARY_DRAIN_SEEDS),
    }
    stats.weak_canary = verdict  # completed below, on every path
    delayed = check_program(program, schedules, config, stats)
    if delayed is not None:
        log("weak canary: delayed SB litmus is NOT robust under TSO")
        _handle_failure(
            program, delayed, schedules, config, stats, -1, log
        )
        verdict["delayed_robust"] = False
        verdict["caught_stripped"] = None
        return
    verdict["delayed_robust"] = True

    stripped_config = dataclasses.replace(config, strip_delays=True)
    stripped = check_program(program, schedules, stripped_config, stats)
    if stripped is None or stripped.oracle != "sc":
        log(
            "weak canary: delay-stripped SB twin showed no SC violation "
            "- the weak backend or the SC oracle lost its teeth"
        )
        toothless = OracleFailure(
            "weak_canary",
            "delay-stripped SB litmus produced no SC violation under "
            f"TSO across drain seeds {list(CANARY_DRAIN_SEEDS)}",
            stripped=True,
        )
        _handle_failure(
            program, toothless, schedules, config, stats, -1, log
        )
        verdict["caught_stripped"] = False
        return

    # Expected divergence: minimize and bundle it exactly like a real
    # failure (exercising ddmin + bundles on a weak-memory repro), but
    # record it as the canary verdict rather than a campaign failure.
    stripped.stripped = True
    log(f"weak canary: stripped twin caught - {stripped.summary()}")
    bundle_dir = _minimize_and_bundle(
        program, stripped, schedules, stripped_config, stats, -1,
        expected_divergence=True,
    )
    verdict["caught_stripped"] = True
    verdict["detail"] = stripped.detail
    verdict["level"] = stripped.level
    verdict["schedule"] = stripped.schedule
    verdict["bundle"] = bundle_dir
    log(f"weak canary: bundle written to {bundle_dir}")


def _minimize_and_bundle(
    program: GeneratedProgram,
    failure: OracleFailure,
    schedules: Sequence[Schedule],
    config: FuzzConfig,
    stats: CampaignStats,
    iteration: int,
    log: Optional[Callable[[str], None]] = None,
    **extra_meta,
) -> str:
    """The one failure path: shrink ``program`` while ``config``'s
    oracles still report ``failure.oracle`` (``log`` gets the summary
    line), write the bundle, record it on ``stats``; returns its path."""
    minimized = program
    if config.minimize:
        tests = 0

        def still_fails(candidate: GeneratedProgram) -> bool:
            nonlocal tests
            tests += 1
            repro = check_program(candidate, schedules, config)
            return repro is not None and repro.oracle == failure.oracle

        minimized = minimize_program(
            program, still_fails, max_tests=config.minimize_budget
        )
        stats.minimizer_tests += tests
        if log is not None:
            log(
                f"  minimized {len(program.phases)} phases/"
                f"{program.procs} procs -> {len(minimized.phases)} phases/"
                f"{minimized.procs} procs ({tests} oracle re-runs)"
            )
    bundle_dir = write_bundle(
        config.failures_dir,
        failure,
        minimized,
        program,
        campaign_meta={
            "campaign_seed": config.seed,
            "profile": config.profile,
            "levels": list(config.levels),
            "schedules": [s.as_dict() for s in schedules],
            "sc_step_limit": config.sc_step_limit,
            "barrier_topology": config.barrier_topology,
            "iteration": iteration,
            **extra_meta,
        },
        # The canary runs before any failure can be recorded, so its
        # bundle is index 0 too; the names differ in oracle and seed.
        index=stats.failure_count,
    )
    stats.bundles.append(bundle_dir)
    return bundle_dir


def _handle_failure(
    program: GeneratedProgram,
    failure: OracleFailure,
    schedules: Sequence[Schedule],
    config: FuzzConfig,
    stats: CampaignStats,
    iteration: int,
    log: Callable[[str], None],
) -> None:
    log(f"FAILURE {failure.summary()} (program seed {program.seed})")
    bundle_dir = _minimize_and_bundle(
        program, failure, schedules, config, stats, iteration, log
    )
    stats.failures.append({
        "oracle": failure.oracle,
        "detail": failure.detail,
        "level": failure.level,
        "schedule": failure.schedule,
        "trace_digest": failure.trace_digest,
        "program_seed": program.seed,
        "bundle": bundle_dir,
    })
    log(f"  bundle written to {bundle_dir}")


def run_campaign(
    config: FuzzConfig,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignStats:
    """Runs one fuzzing campaign to its budget; returns the stats."""
    log = log or (lambda message: None)
    rng = random.Random(config.seed)
    stats = CampaignStats(
        seed=config.seed, profile=config.profile, levels=config.levels
    )
    start = time.monotonic()
    if _profile_is_weak(config.profile):
        _check_weak_canary(config, stats, log)
    iterations = config.effective_iterations()
    iteration = 0
    while True:
        if iterations is not None and iteration >= iterations:
            break
        if config.budget_seconds is not None and (
            time.monotonic() - start >= config.budget_seconds
        ):
            break
        if stats.failure_count >= config.max_failures:
            log("max failures reached; stopping early")
            break
        gen_seed = rng.getrandbits(32)
        procs = rng.choice(config.procs_choices)
        num_phases = rng.randint(*config.phase_range)
        program = generate_program(
            gen_seed, config.profile, procs, num_phases
        )
        schedules = _make_schedules(rng, config)
        failure = check_program(program, schedules, config, stats)
        stats.programs += 1
        if failure is not None:
            _handle_failure(
                program, failure, schedules, config, stats,
                iteration, log,
            )
        iteration += 1
        if iteration % 10 == 0:
            log(
                f"{iteration} programs, {stats.schedules_run} schedules,"
                f" {stats.sc.checks} SC checks ({stats.sc.skips} skips),"
                f" {stats.failure_count} failures"
            )
    stats.elapsed_seconds = time.monotonic() - start
    return stats
