"""Campaign driver tests: clean runs, injected bugs, bundles, CLI."""

import json
import os

import pytest

from repro import OptLevel, compile_source
from repro.analysis.delays import AnalysisLevel
from repro.cli import main as cli_main
from repro.fuzz import FuzzConfig, run_campaign
from repro.fuzz.bundle import read_bundle
from repro.fuzz.campaign import check_program
from repro.fuzz.progen import generate_program
from repro.perf import profiler as perf


def config_for(tmp_path, **overrides):
    defaults = dict(
        seed=0,
        iterations=3,
        failures_dir=str(tmp_path / "fuzz-failures"),
        schedules_per_program=2,
        max_failures=1,
        minimize_budget=16,
    )
    defaults.update(overrides)
    return FuzzConfig(**defaults)


class TestCleanCampaign:
    def test_stats_shape(self, tmp_path):
        stats = run_campaign(config_for(tmp_path, profile="racy"))
        payload = stats.as_dict()
        assert payload["programs"] == 3
        assert payload["schedules_run"] == 6
        assert payload["runs"] == 18  # 3 programs * 2 schedules * 3 lvls
        assert payload["sc_checks"] == 18
        assert payload["failures"] == []
        assert payload["monotonicity_checks"] == 3
        assert payload["elapsed_seconds"] >= 0

    def test_seed_reproducibility(self, tmp_path):
        first = run_campaign(config_for(tmp_path, profile="mixed"))
        second = run_campaign(config_for(tmp_path, profile="mixed"))
        first_dict, second_dict = first.as_dict(), second.as_dict()
        first_dict.pop("elapsed_seconds")
        second_dict.pop("elapsed_seconds")
        assert first_dict == second_dict

    def test_monotonicity_oracle_shares_one_frontend(self, tmp_path):
        # No levels, no schedules: only the oracle step touches the
        # compiler, so the profile is the oracle's alone.
        config = config_for(tmp_path, levels=())
        with perf.profiled() as prof:
            assert check_program(generate_program(0), [], config) is None
        assert prof.passes["pass.parse"].calls == 1
        assert prof.passes["pass.analysis-sas"].calls == 1
        assert prof.passes["pass.analysis-sync"].calls == 1
        assert prof.counters["analysis.artifacts_reused"] >= 1

    def test_every_level_compiles_on_the_oracle_session(self, tmp_path):
        # Default levels, no schedules: one parse and one analysis per
        # delay-set level serve the oracle and all three compiles.
        config = config_for(tmp_path)
        with perf.profiled() as prof:
            assert check_program(generate_program(0), [], config) is None
        assert prof.passes["pass.parse"].calls == 1
        assert prof.passes["pass.analysis-sas"].calls == 1
        assert prof.passes["pass.analysis-sync"].calls == 1
        assert prof.counters["pipeline.compiles"] == len(config.levels)

    def test_campaign_writes_nothing_to_the_compile_store(
        self, tmp_path, isolated_cache_dir
    ):
        stats = run_campaign(FuzzConfig(
            iterations=2, failures_dir=str(tmp_path / "fuzz-failures"),
        ))
        assert stats.programs == 2 and stats.failure_count == 0
        assert not os.path.exists(isolated_cache_dir) \
            or not os.listdir(isolated_cache_dir)

    def test_budget_seconds_halts(self, tmp_path):
        stats = run_campaign(
            config_for(tmp_path, iterations=None, budget_seconds=0.0)
        )
        assert stats.programs == 0


class _SnapshotCorruptor:
    """Wraps a compiled program; poisons one shared cell after runs."""

    def __init__(self, program):
        self._program = program

    def run(self, *args, **kwargs):
        result = self._program.run(*args, **kwargs)
        memory = result.memory
        name = sorted(memory.snapshot())[0]
        var = memory.var(name)
        indices = (0,) * len(var.dims) if var.dims else ()
        memory.write(name, indices, 424242.0)
        return result


def corrupting_compile(source, level):
    program = compile_source(source, OptLevel(level))
    if level == "O3":
        return _SnapshotCorruptor(program)
    return program


def monotonicity_breaking_analyze(source, level):
    from repro import analyze_source

    result = analyze_source(source, level)
    if level is AnalysisLevel.SYNC:
        result.delays_by_index = set(result.delays_by_index) | {
            (9998, 9999)
        }
    return result


class TestInjectedBugs:
    def test_broken_compiler_caught_and_minimized(self, tmp_path):
        stats = run_campaign(
            config_for(tmp_path, compile_fn=corrupting_compile)
        )
        assert stats.failure_count == 1
        failure = stats.failures[0]
        assert failure["oracle"] == "snapshot"
        assert failure["level"] == "O3"
        assert "424242" in failure["detail"]
        assert stats.minimizer_tests > 0

        bundle_dir = stats.bundles[0]
        assert os.path.isdir(bundle_dir)
        manifest = read_bundle(bundle_dir)
        assert manifest["oracle"] == "snapshot"
        assert manifest["schema"] == 1
        assert manifest["campaign"]["campaign_seed"] == 0
        minimized = open(
            os.path.join(bundle_dir, "program.ms"), encoding="utf-8"
        ).read()
        original = open(
            os.path.join(bundle_dir, "original.ms"), encoding="utf-8"
        ).read()
        assert "void main()" in minimized
        # The corruption fires on every run, so ddmin reaches 1 phase.
        assert manifest["minimized"]["num_phases"] == 1
        assert len(minimized) <= len(original)
        assert "repro run program.ms" in manifest["repro_hint"]

    def test_broken_analysis_caught(self, tmp_path):
        stats = run_campaign(
            config_for(
                tmp_path, analyze_fn=monotonicity_breaking_analyze
            )
        )
        assert stats.failure_count == 1
        assert stats.failures[0]["oracle"] == "monotonicity"
        assert "(9998, 9999)" in stats.failures[0]["detail"]

    def test_max_failures_stops_early(self, tmp_path):
        stats = run_campaign(
            config_for(
                tmp_path,
                iterations=10,
                compile_fn=corrupting_compile,
                minimize=False,
            )
        )
        assert stats.failure_count == 1
        assert stats.programs < 10


class TestCli:
    def test_clean_run_exits_zero_and_prints_json(
        self, tmp_path, capsys
    ):
        stats_path = tmp_path / "stats.json"
        status = cli_main([
            "fuzz", "--iterations", "2", "--seed", "0",
            "--profile", "racy", "--quiet", "--failures-dir",
            str(tmp_path / "fuzz-failures"),
            "--stats-out", str(stats_path),
        ])
        assert status == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["totals"]["programs"] == 2
        assert printed["totals"]["failures"] == 0
        assert json.loads(stats_path.read_text()) == printed

    def test_all_profiles_split_budget(self, tmp_path, capsys):
        status = cli_main([
            "fuzz", "--iterations", "5", "--profile", "all", "--quiet",
            "--failures-dir", str(tmp_path / "fuzz-failures"),
        ])
        assert status == 0
        printed = json.loads(capsys.readouterr().out)
        assert len(printed["profiles"]) == 7
        assert printed["totals"]["programs"] == 7  # 1 per profile
        assert printed["totals"]["weak_runs"] > 0

    @pytest.mark.parametrize("flag", ["--iterations", "--schedules"])
    def test_flags_accepted(self, tmp_path, capsys, flag):
        status = cli_main([
            "fuzz", flag, "1", "--profile", "racy", "--quiet",
            "--failures-dir",
            str(tmp_path / "fuzz-failures"),
        ])
        assert status == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--jobs", "0"],
        ["fuzz", "--no-cache"],
        ["bench-app", "ocean", "--jobs", "2"],
        ["bench-app", "ocean", "--no-cache"],
    ])
    def test_pool_and_store_flags_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFaultyProfile:
    def test_lossy_schedules_run_and_agree(self, tmp_path):
        stats = run_campaign(config_for(tmp_path, profile="faulty"))
        assert stats.failure_count == 0
        assert stats.fault_runs > 0
        assert stats.retransmits > 0
        # every fault-free schedule gets a lossy twin
        assert stats.schedules_run == 3 * 2 * 2
        payload = stats.as_dict()
        assert payload["fault_runs"] == stats.fault_runs
        assert payload["retransmits"] == stats.retransmits

    def test_faulty_campaign_is_seed_reproducible(self, tmp_path):
        first = run_campaign(config_for(tmp_path, profile="faulty"))
        second = run_campaign(config_for(tmp_path, profile="faulty"))
        first_dict, second_dict = first.as_dict(), second.as_dict()
        first_dict.pop("elapsed_seconds")
        second_dict.pop("elapsed_seconds")
        assert first_dict == second_dict

    def test_broken_retransmission_is_caught(self, tmp_path, monkeypatch):
        # Seeded protocol bug: retransmit timers silently do nothing,
        # so the first dropped envelope is lost forever and the lossy
        # run deadlocks — the campaign must surface that as a failure
        # rather than reporting a clean pass.
        from repro.runtime.simulator import Simulator

        monkeypatch.setattr(
            Simulator, "_handle_retx",
            lambda self, now, link, seq: None,
        )
        stats = run_campaign(config_for(
            tmp_path, profile="faulty", minimize=False,
        ))
        assert stats.failure_count > 0
        assert stats.failures[0]["oracle"] == "crash"
        assert "stalled" in stats.failures[0]["detail"]
        assert "blocked on" in stats.failures[0]["detail"]

    def test_schedule_dict_round_trips_fault_fields(self):
        from repro.fuzz.campaign import Schedule

        schedule = Schedule(
            net_seed=7, machine="cm5", jitter=100,
            faults="drop=0.1,dup=0.05", fault_seed=3,
        )
        data = schedule.as_dict()
        assert data["faults"] == "drop=0.1,dup=0.05"
        assert data["fault_seed"] == 3
        plan = schedule.fault_plan()
        assert plan is not None and plan.seed == 3
        assert Schedule(net_seed=7, machine="cm5",
                        jitter=100).fault_plan() is None


class TestWeakProfile:
    def test_weak_twins_mirror_each_schedule(self):
        import random

        from repro.fuzz.campaign import _make_schedules

        config = FuzzConfig(
            profile="weak_memory", schedules_per_program=2
        )
        schedules = _make_schedules(random.Random(0), config)
        assert len(schedules) == 6
        models = [s.memory_model for s in schedules]
        assert models.count("sc") == 2
        assert models.count("tso") == 2
        assert models.count("pso") == 2
        base = {s.net_seed for s in schedules if s.memory_model == "sc"}
        for schedule in schedules:
            assert schedule.net_seed in base  # twins share the network
        data = [s for s in schedules if s.memory_model != "sc"][0]
        assert "memory_model" in data.as_dict()
        assert data.machine_config().memory_model == data.memory_model

    def test_robustness_oracle_and_canary(self, tmp_path):
        stats = run_campaign(
            config_for(tmp_path, profile="weak_memory", iterations=2)
        )
        # SC/TSO/PSO snapshots of every generated program agreed...
        assert stats.failure_count == 0
        assert stats.weak_runs > 0
        # ...and the SB canary proved the oracle has teeth: the build
        # with compiled delays is robust, the delay-stripped twin's
        # non-SC outcome is caught, minimized and bundled.
        canary = stats.weak_canary
        assert canary["delayed_robust"] is True
        assert canary["caught_stripped"] is True
        assert os.path.isdir(canary["bundle"])
        manifest = read_bundle(canary["bundle"])
        assert manifest["oracle"] == "sc"
        assert manifest["stripped"] is True
        assert manifest["campaign"]["expected_divergence"] is True
        assert "--memory-model tso" in manifest["repro_hint"]
        assert "--strip-delays" in manifest["repro_hint"]
        assert stats.sc.violations > 0  # the canary's caught divergence

    def test_weak_campaign_is_seed_reproducible(self, tmp_path):
        first = run_campaign(
            config_for(tmp_path, profile="weak_memory", iterations=1)
        )
        second = run_campaign(
            config_for(tmp_path, profile="weak_memory", iterations=1)
        )
        first_dict, second_dict = first.as_dict(), second.as_dict()
        first_dict.pop("elapsed_seconds")
        second_dict.pop("elapsed_seconds")
        assert first_dict == second_dict

    def test_toothless_stripping_is_a_failure(self, tmp_path,
                                              monkeypatch):
        # Seeded bug: stripping quietly keeps the delay fences, so the
        # "stripped" twin never diverges — the canary must fail the
        # campaign instead of reporting a clean pass.
        from repro.pipeline.program import CompiledProgram

        monkeypatch.setattr(
            CompiledProgram, "without_delay_fences",
            lambda self: self,
        )
        stats = run_campaign(config_for(
            tmp_path, profile="weak_memory", minimize=False,
        ))
        assert stats.failure_count > 0
        assert stats.failures[0]["oracle"] == "weak_canary"
        assert stats.weak_canary["caught_stripped"] is False
        assert stats.weak_canary["delayed_robust"] is True


class TestVerifyEachPass:
    def test_clean_campaign_with_pass_verification(self, tmp_path):
        """--verify-passes compiles through the session path with the
        per-pass verifier enabled; a clean campaign stays clean."""
        from repro.perf import profiler as perf

        with perf.profiled() as prof:
            stats = run_campaign(
                config_for(tmp_path, iterations=2,
                           verify_each_pass=True)
            )
        assert stats.failure_count == 0
        assert prof.passes["pass.verify-each-pass"].calls > 0

    def test_cli_flag_accepted(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "fuzz", "--iterations", "1", "--quiet", "--verify-passes",
            "--failures-dir", str(tmp_path / "failures"),
        ]) == 0
        assert '"programs": 1' in capsys.readouterr().out
