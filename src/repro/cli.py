"""Command-line interface.

::

    repro analyze program.ms [--level sas|sync]
    repro compile program.ms [--opt O0..O4] [--emit]
              [--verify-each-pass] [--print-after-pass PASS]
    repro run program.ms [--opt O3] [--procs 8] [--machine cm5] [--seed 0]
              [--barrier-topology central|tree]
              [--memory-model sc|tso|pso] [--drain-seed 0] [--strip-delays]
              [--faults drop=0.1,dup=0.05] [--fault-seed 0] [--verbose]
    repro passes
    repro bench-app ocean [--procs 8] [--machine cm5]
    repro fuzz [--iterations N | --budget-seconds S] [--seed 0]
               [--profile mixed|sync_heavy|lock_heavy|...|all]
               [--verify-passes]
    repro serve --socket /tmp/repro.sock [--cache-dir DIR]
    repro client ping|stats|shutdown --socket /tmp/repro.sock
    repro client compile|analyze|simulate prog.ms --socket ...

``repro`` is also usable as ``python -m repro``.  The full
subcommand/flag reference lives in docs/CLI.md (enforced against this
module by ``tests/serve/test_docs_sync.py``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, List, Optional

from repro import OptLevel, analyze_source, compile_source
from repro.analysis.delays import AnalysisLevel
from repro.runtime.machine import (
    BARRIER_TOPOLOGIES,
    MACHINES,
    MEMORY_MODELS,
    get_machine,
    validate_barrier_topology,
    validate_memory_model,
)


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", help="MiniSplit source file")


def _add_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", action="store_true",
        help="emit per-pass wall-time and counter JSON after the command",
    )


def _add_pipeline_debug(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verify-each-pass", action="store_true",
        help="re-verify the IR after every mutating codegen pass, "
             "pinning a verifier failure to the pass that caused it",
    )
    parser.add_argument(
        "--print-after-pass", action="append", default=None,
        metavar="PASS",
        help="dump the working IR after the named pass "
             "('all' = after every mutating pass); repeatable — "
             "see 'repro passes' for the pass names",
    )


def _pipeline_options(args: argparse.Namespace):
    """PipelineOptions from the debug flags (None = environment only).

    Raises ``ValueError`` for a ``--print-after-pass`` name the pass
    table does not have.
    """
    verify = getattr(args, "verify_each_pass", False)
    prints = tuple(getattr(args, "print_after_pass", None) or ())
    if not verify and not prints:
        return None
    from repro.pipeline import PASSES, PipelineOptions

    known = [*PASSES, "all"]
    for name in prints:
        if name not in known:
            raise ValueError(
                f"unknown pass {name!r} for --print-after-pass "
                f"(known: {', '.join(known)})"
            )

    options = PipelineOptions.from_env()
    options.verify_each_pass = options.verify_each_pass or verify
    options.print_after = prints
    return options


def _cmd_analyze(args: argparse.Namespace) -> int:
    level = (
        AnalysisLevel.SAS if args.level == "sas" else AnalysisLevel.SYNC
    )
    result = analyze_source(_read_source(args.source), level,
                            filename=args.source)
    stats = result.stats
    print(f"analysis level:      {result.level.value}")
    print(f"shared accesses:     {stats.num_accesses} "
          f"({stats.num_sync_accesses} synchronization)")
    print(f"conflict pairs:      {stats.conflict_pairs}")
    print(f"precedence edges:    {stats.precedence_size}")
    print(f"initial delays (D1): {stats.d1_size}")
    print(f"delay set size:      {stats.delay_size}")
    if args.report:
        from repro.analysis.report import render_report

        print()
        print(render_report(result, witnesses=args.witnesses))
    elif args.edges:
        print("delay edges:")
        for a, b in result.delay_edges():
            print(f"  {a}  ->  {b}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    try:
        options = _pipeline_options(args)
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    program = compile_source(
        _read_source(args.source), OptLevel(args.opt),
        filename=args.source, options=options,
    )
    report = program.report
    print(f"opt level:          {program.opt_level.value}")
    print(f"reads split-phased: {report.converted_reads}")
    print(f"writes split-phased:{report.converted_writes}")
    print(f"gets fused:         {report.gets_fused}")
    print(f"gets hoisted:       {report.gets_hoisted}")
    print(f"sync placements:    {report.sync_moves}")
    print(f"puts -> stores:     {report.one_way_conversions}")
    print(f"gets eliminated:    {report.gets_eliminated}")
    print(f"puts eliminated:    {report.puts_eliminated}")
    print(f"sync counters:      {report.counters_after} "
          f"(from {report.counters_before})")
    if args.emit:
        print()
        print(program.splitc() if args.splitc else program.pretty())
    return 0


def _runtime_error_exit(exc: BaseException, verbose: bool) -> int:
    """One-line diagnostic (or full traceback with --verbose), exit 2."""
    if verbose:
        import traceback

        traceback.print_exc(file=sys.stderr)
    else:
        from repro.errors import DeadlockError, error_summary

        print(f"repro: error: {error_summary(exc)}", file=sys.stderr)
        if isinstance(exc, DeadlockError) and exc.report:
            print(
                "repro: re-run with --verbose for the full deadlock "
                "report", file=sys.stderr,
            )
    return 2


def _parse_faults(args: argparse.Namespace):
    """The FaultPlan from --faults/--fault-seed, or None."""
    if not getattr(args, "faults", None):
        return None
    from repro.runtime.network import FaultPlan

    return FaultPlan.parse(args.faults, seed=args.fault_seed)


def _cmd_run(args: argparse.Namespace) -> int:
    # Validate every schedule knob before compiling anything: a typo'd
    # fault spec, machine, memory model, barrier topology or processor
    # count gets the one-line exit-2 diagnostic, never a traceback or a
    # silently fault-free run.
    try:
        plan = _parse_faults(args)
        options = _pipeline_options(args)
        machine = get_machine(args.machine)
        model = validate_memory_model(args.memory_model)
        topology = validate_barrier_topology(args.barrier_topology)
        if args.procs > machine.max_procs:
            raise ValueError(
                f"{args.procs} processors exceeds the {machine.name} "
                f"model's limit of {machine.max_procs}"
            )
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro: error: {message}", file=sys.stderr)
        return 2
    if model != "sc":
        machine = machine.with_memory_model(model, args.drain_seed)
    if topology != machine.barrier_topology:
        machine = machine.with_barrier_topology(topology)
    program = compile_source(
        _read_source(args.source), OptLevel(args.opt),
        filename=args.source, options=options,
    )
    if args.strip_delays:
        program = program.without_delay_fences()
    from repro.errors import DeadlockError, RuntimeFault

    run_kwargs = {}
    if plan is not None:
        run_kwargs["fault_plan"] = plan
    try:
        result = program.run(
            args.procs, machine, seed=args.seed, **run_kwargs
        )
    except (DeadlockError, RuntimeFault) as exc:
        return _runtime_error_exit(exc, args.verbose)
    print(f"machine:     {machine.name} ({args.procs} processors)")
    print(f"cycles:      {result.cycles}")
    print(f"instructions:{result.instructions}")
    print(f"messages:    {result.total_messages}")
    if result.weak_stats is not None:
        stats = result.weak_stats
        fences = len(program.delay_fences)
        print(f"memory model:{' ' + model} "
              f"(drain seed {args.drain_seed}, {fences} delay fence(s)"
              f"{', delays stripped' if args.strip_delays else ''})")
        print(f"  buffered:  {stats['buffered_writes']} write(s), "
              f"max depth {stats['max_depth']}")
        print(f"  forwarded: {stats['forwards']} read(s)")
        print(f"  drained:   {stats['drained']} background, "
              f"{stats['fence_drained']} at {stats['fences']} fence(s)")
    if plan is not None:
        net = result.network.stats
        print(f"fault plan:  {plan.describe()} (--fault-seed {plan.seed})")
        print(f"drops:       {net.drops}")
        print(f"duplicates:  {net.duplicates} injected, "
              f"{net.duplicates_suppressed} suppressed")
        print(f"retransmits: {net.retransmits}")
    if args.dump:
        for name, values in sorted(result.snapshot().items()):
            shown = ", ".join(f"{v:g}" for v in values[: args.dump])
            suffix = ", ..." if len(values) > args.dump else ""
            print(f"  {name} = [{shown}{suffix}]")
    return 0


def _cmd_bench_app(args: argparse.Namespace) -> int:
    from repro.apps import get_app
    from repro.compiler import open_session
    from repro.errors import DeadlockError, RuntimeFault

    app = get_app(args.app)
    machine = get_machine(args.machine)
    print(f"{app.name}: {app.description}")
    levels = (OptLevel.O1, OptLevel.O2, OptLevel.O3)
    programs = open_session(app.source(args.procs)).compile_levels(levels)
    for level, program in zip(levels, programs):
        try:
            result = program.run(args.procs, machine, seed=args.seed)
        except (DeadlockError, RuntimeFault) as exc:
            return _runtime_error_exit(exc, args.verbose)
        print(
            f"  {level.value}: {result.cycles} cycles, "
            f"{result.total_messages} messages"
        )
    return 0


def _cmd_passes(args: argparse.Namespace) -> int:
    from repro.pipeline import describe_pipelines

    print(describe_pipelines())
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.fuzz import PROFILES, FuzzConfig, run_campaign

    def log(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr)

    try:
        topology = validate_barrier_topology(args.barrier_topology)
    except KeyError as exc:
        print(f"repro: error: {exc.args[0]}", file=sys.stderr)
        return 2
    levels = tuple(args.levels.split(","))
    known = [lvl.value for lvl in OptLevel]
    unknown = [level for level in levels if level not in known]
    if unknown:
        print(f"repro: error: unknown optimization level {unknown[0]!r} "
              f"in --levels (known: {', '.join(known)})", file=sys.stderr)
        return 2

    profiles = (
        sorted(PROFILES) if args.profile == "all" else [args.profile]
    )
    budget = args.budget_seconds
    iterations = args.iterations
    if budget is not None:
        budget = budget / len(profiles)
    elif iterations is not None:
        iterations = max(1, iterations // len(profiles))

    per_profile = {}
    totals = {
        "programs": 0, "schedules_run": 0, "runs": 0,
        "fault_runs": 0, "retransmits": 0, "weak_runs": 0,
        "sc_checks": 0, "sc_skips": 0, "sc_violations": 0,
        "failures": 0,
    }
    bundles = []
    for index, profile in enumerate(profiles):
        log(f"== profile {profile} ({index + 1}/{len(profiles)})")
        config = FuzzConfig(
            seed=args.seed,
            profile=profile,
            iterations=iterations,
            budget_seconds=budget,
            schedules_per_program=args.schedules,
            barrier_topology=topology,
            levels=levels,
            sc_step_limit=args.step_limit,
            failures_dir=args.failures_dir,
            max_failures=args.max_failures,
            minimize=not args.no_minimize,
            verify_each_pass=args.verify_passes,
        )
        stats = run_campaign(config, log=log).as_dict()
        per_profile[profile] = stats
        for key in totals:
            if key == "failures":
                totals[key] += len(stats["failures"])
            else:
                totals[key] += stats[key]
        bundles.extend(stats["bundles"])

    payload = {
        "schema": 1,
        "seed": args.seed,
        "profiles": per_profile,
        "totals": totals,
        "bundles": bundles,
    }
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    print(rendered)
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    if totals["failures"]:
        log(
            f"{totals['failures']} failure(s); bundles under "
            f"{args.failures_dir}/"
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.daemon import ServeConfig, serve

    config = ServeConfig(socket_path=args.socket, cache_dir=args.cache_dir)
    try:
        asyncio.run(serve(config))
    except (OSError, ValueError) as exc:
        # A busy socket, or a malformed $REPRO_CACHE_MAX_* read at
        # startup.
        return _runtime_error_exit(exc, args.verbose)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import (
        RetryPolicy,
        ServeClient,
        ServeError,
    )

    needs_source = args.op in ("compile", "analyze", "simulate")
    if needs_source and not args.source:
        print(
            f"repro: error: client {args.op} requires a source file",
            file=sys.stderr,
        )
        return 2
    try:
        retry = RetryPolicy(max_attempts=args.retries)
    except ValueError as exc:
        return _runtime_error_exit(exc, verbose=False)
    try:
        with ServeClient(
            args.socket,
            timeout=args.timeout,
            connect_timeout=args.connect_timeout,
            retry=retry,
        ) as client:
            if args.op == "compile":
                result = client.compile(
                    _read_source(args.source), opt=args.opt
                )
            elif args.op == "analyze":
                result = client.analyze(
                    _read_source(args.source), level=args.level
                )
            elif args.op == "simulate":
                result = client.simulate(
                    _read_source(args.source),
                    opt=args.opt,
                    procs=args.procs,
                    machine=args.machine,
                    seed=args.seed,
                    memory_model=args.memory_model,
                    drain_seed=args.drain_seed,
                )
            else:
                result = client.request(args.op)
    except ServeError as exc:
        print(
            f"repro: error: [{exc.code}] {exc.message}",
            file=sys.stderr,
        )
        hint = _client_retry_hint(exc, args)
        if hint:
            print(f"repro: hint: {hint}", file=sys.stderr)
        return 2
    if args.artifact_out and "artifact" in result:
        import base64

        with open(args.artifact_out, "wb") as handle:
            handle.write(base64.b64decode(result["artifact"]))
    if "artifact" in result:
        # The pickled blob is for --artifact-out, not terminals.
        result = dict(result)
        result["artifact"] = (
            f"<{result.pop('artifact_bytes')} bytes; "
            "use --artifact-out to save>"
        )
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _client_retry_hint(exc: Any, args: argparse.Namespace) -> str:
    """One actionable line for retryable ``repro client`` failures."""
    wait = (
        f"{exc.retry_after_ms}ms"
        if getattr(exc, "retry_after_ms", None) is not None
        else "a moment"
    )
    if exc.code == "shutting_down":
        return (
            f"the daemon is draining; retry in {wait} "
            "or start a fresh daemon"
        )
    if exc.code == "overloaded":
        return (
            f"the daemon shed this request (pending queue full); "
            f"retry in {wait} or send fewer requests at once"
        )
    if exc.code == "transport":
        return (
            f"no answer after {args.retries} attempt(s); "
            f"is a daemon listening on {args.socket!r}?"
        )
    return ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Optimizing Parallel Programs with Explicit "
            "Synchronization' (PLDI 1995)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser(
        "analyze", help="run delay-set analysis and print statistics"
    )
    _add_common(analyze)
    analyze.add_argument("--level", choices=["sas", "sync"], default="sync")
    analyze.add_argument(
        "--edges", action="store_true", help="list every delay edge"
    )
    analyze.add_argument(
        "--report", action="store_true",
        help="print the full grouped analysis report",
    )
    analyze.add_argument(
        "--witnesses", action="store_true",
        help="with --report: show the violation cycle each delay "
             "prevents",
    )
    _add_profile(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    compile_cmd = subparsers.add_parser(
        "compile", help="compile and report the optimizations applied"
    )
    _add_common(compile_cmd)
    compile_cmd.add_argument(
        "--opt", choices=[lvl.value for lvl in OptLevel], default="O3"
    )
    compile_cmd.add_argument(
        "--emit", action="store_true", help="print the optimized IR"
    )
    compile_cmd.add_argument(
        "--splitc", action="store_true",
        help="with --emit: print Split-C-style surface syntax instead",
    )
    _add_profile(compile_cmd)
    _add_pipeline_debug(compile_cmd)
    compile_cmd.set_defaults(func=_cmd_compile)

    run = subparsers.add_parser(
        "run", help="compile and simulate on a machine model"
    )
    _add_common(run)
    run.add_argument(
        "--opt", choices=[lvl.value for lvl in OptLevel], default="O3"
    )
    run.add_argument("--procs", type=int, default=8)
    # Not argparse ``choices``: unknown names go through the same
    # one-line exit-2 diagnostic as bad --faults specs, even combined.
    run.add_argument(
        "--machine", default="cm5", metavar="NAME",
        help=f"machine model ({', '.join(sorted(MACHINES))})",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--barrier-topology", default="central", metavar="TOPO",
        help="barrier synchronization topology "
             f"({', '.join(BARRIER_TOPOLOGIES)}; default central, "
             "the seed-identical rendezvous)",
    )
    run.add_argument(
        "--memory-model", default="sc", metavar="MODEL",
        help="memory model the simulated hardware executes "
             f"({', '.join(MEMORY_MODELS)}; default sc)",
    )
    run.add_argument(
        "--drain-seed", type=int, default=0,
        help="seed for the store-buffer drain schedule (weak models)",
    )
    run.add_argument(
        "--strip-delays", action="store_true",
        help="drop the compiler's delay fences before running — the "
             "weak-memory debug twin that may exhibit non-SC outcomes",
    )
    run.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject network faults: 'drop=P,dup=P', e.g. "
             "'drop=0.1,dup=0.05' (see repro.runtime.network)",
    )
    run.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault-decision RNG (deterministic replay)",
    )
    run.add_argument(
        "--verbose", action="store_true",
        help="print full tracebacks and deadlock reports on failure",
    )
    run.add_argument(
        "--dump", type=int, default=0, metavar="N",
        help="print the first N elements of each shared variable",
    )
    _add_profile(run)
    _add_pipeline_debug(run)
    run.set_defaults(func=_cmd_run)

    passes = subparsers.add_parser(
        "passes",
        help="list the codegen passes and the O0-O4 pipelines",
    )
    passes.set_defaults(func=_cmd_passes)

    bench = subparsers.add_parser(
        "bench-app", help="run one application kernel at several levels"
    )
    bench.add_argument("app")
    bench.add_argument("--procs", type=int, default=8)
    bench.add_argument(
        "--machine", choices=sorted(MACHINES), default="cm5"
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--verbose", action="store_true",
        help="print full tracebacks and deadlock reports on failure",
    )
    _add_profile(bench)
    bench.set_defaults(func=_cmd_bench_app)

    from repro.fuzz.progen import PROFILES as _FUZZ_PROFILES

    fuzz = subparsers.add_parser(
        "fuzz",
        help="run a differential fuzzing campaign (exit 1 on failures)",
    )
    fuzz.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N generated programs (with --profile all, N "
             "is split across the profiles, at least one each)",
    )
    fuzz.add_argument(
        "--budget-seconds", type=float, default=None, metavar="S",
        help="stop after S seconds of wall clock (split across "
             "profiles with --profile all)",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--profile",
        choices=sorted(_FUZZ_PROFILES) + ["all"],
        default="mixed",
    )
    fuzz.add_argument(
        "--schedules", type=int, default=3, metavar="N",
        help="adversarial schedules per program",
    )
    fuzz.add_argument(
        "--barrier-topology", default="central", metavar="TOPO",
        help="barrier topology every schedule runs "
             f"({', '.join(BARRIER_TOPOLOGIES)}; default central)",
    )
    fuzz.add_argument(
        "--levels", default="O0,O1,O3", metavar="L1,L2,...",
        help="optimization levels to cross-check "
             "(default the NAIVE/SHASHA_SNIR/SYNC trio)",
    )
    fuzz.add_argument(
        "--step-limit", type=int, default=20_000,
        help="SC-checker step budget; larger traces are skipped "
             "and counted",
    )
    fuzz.add_argument("--failures-dir", default="fuzz-failures")
    fuzz.add_argument(
        "--max-failures", type=int, default=5,
        help="stop a profile's campaign after this many failures",
    )
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="skip delta-debugging failing programs")
    fuzz.add_argument(
        "--verify-passes", action="store_true",
        help="verify the IR after every mutating pass of every compile",
    )
    fuzz.add_argument(
        "--stats-out", default=None, metavar="PATH",
        help="also write the campaign-stats JSON to PATH",
    )
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress progress lines on stderr")
    fuzz.set_defaults(func=_cmd_fuzz)

    serve = subparsers.add_parser(
        "serve",
        help="run the compile-as-a-service daemon on a unix socket",
    )
    serve.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix socket path to listen on",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact-store root (default $REPRO_CACHE_DIR or "
             "~/.cache/repro-compile)",
    )
    # Ignored; ROADMAP item 10 (benchmark-only) removes it.
    serve.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="accepted and ignored (every compile runs in-process)",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="print full tracebacks on startup failure",
    )
    serve.set_defaults(func=_cmd_serve)

    client = subparsers.add_parser(
        "client",
        help="send one request to a running repro serve daemon",
    )
    client.add_argument(
        "op",
        choices=["ping", "stats", "shutdown", "compile", "analyze",
                 "simulate"],
        help="the protocol operation to perform",
    )
    client.add_argument(
        "source", nargs="?", default=None,
        help="MiniSplit source file (compile/analyze/simulate)",
    )
    client.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix socket the daemon listens on",
    )
    client.add_argument(
        "--opt", choices=[lvl.value for lvl in OptLevel], default="O3"
    )
    client.add_argument(
        "--level", choices=["sas", "sync"], default="sync",
        help="analysis level (analyze op)",
    )
    client.add_argument("--procs", type=int, default=8)
    client.add_argument(
        "--machine", default="cm5", metavar="NAME",
        help=f"machine model ({', '.join(sorted(MACHINES))})",
    )
    client.add_argument("--seed", type=int, default=0)
    client.add_argument(
        "--memory-model", default="sc", metavar="MODEL",
        help="memory model for the simulate op "
             f"({', '.join(MEMORY_MODELS)}; default sc)",
    )
    client.add_argument(
        "--drain-seed", type=int, default=0,
        help="store-buffer drain-schedule seed (weak models)",
    )
    client.add_argument(
        "--timeout", type=float, default=120.0, metavar="S",
        help="seconds to wait for the daemon's response",
    )
    client.add_argument(
        "--connect-timeout", type=float, default=5.0, metavar="S",
        help="seconds to wait for the unix-socket dial (default 5)",
    )
    client.add_argument(
        "--retries", type=int, default=4, metavar="N",
        help="attempts for retryable failures (transport/overloaded/"
             "shutting_down) with jittered backoff (default 4)",
    )
    client.add_argument(
        "--artifact-out", default=None, metavar="PATH",
        help="with the compile op: write the pickled CompiledProgram "
             "blob to PATH",
    )
    client.set_defaults(func=_cmd_client)
    return parser


#: What a shell reports for a process that SIGPIPE killed.
EXIT_BROKEN_PIPE = 141


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # ``fuzz`` reuses the --profile name for its generator profile
        # (a string); only the boolean store_true flag means perf
        # profiling.
        if getattr(args, "profile", False) is True:
            from repro.perf import profiled

            with profiled() as prof:
                status = args.func(args)
            print(prof.to_json())
        else:
            status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro passes | head -1``): stop
        # quietly, and point stdout at /dev/null so the interpreter's
        # own flush at exit does not report the same broken pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
