"""Command-line interface tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXIT_BROKEN_PIPE, main
from tests.helpers import FIGURE_1

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.ms"
    path.write_text(FIGURE_1)
    return str(path)


class TestAnalyze:
    def test_basic(self, program_file, capsys):
        assert main(["analyze", program_file]) == 0
        out = capsys.readouterr().out
        assert "delay set size" in out
        assert "sync-aware" in out

    def test_sas_level(self, program_file, capsys):
        assert main(["analyze", program_file, "--level", "sas"]) == 0
        assert "shasha-snir" in capsys.readouterr().out

    def test_edges_listing(self, program_file, capsys):
        assert main(["analyze", program_file, "--edges"]) == 0
        out = capsys.readouterr().out
        assert "write Data" in out


class TestCompile:
    def test_report(self, program_file, capsys):
        assert main(["compile", program_file, "--opt", "O2"]) == 0
        out = capsys.readouterr().out
        assert "reads split-phased" in out

    def test_emit_ir(self, program_file, capsys):
        assert main(["compile", program_file, "--emit"]) == 0
        out = capsys.readouterr().out
        assert "func main" in out


class TestRun:
    def test_run_reports_cycles(self, program_file, capsys):
        assert main(
            ["run", program_file, "--procs", "2", "--machine", "cm5"]
        ) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_dump_values(self, program_file, capsys):
        assert main(["run", program_file, "--procs", "2",
                     "--dump", "4"]) == 0
        out = capsys.readouterr().out
        assert "Data" in out and "Flag" in out

    def test_t3d_machine(self, program_file, capsys):
        assert main(
            ["run", program_file, "--machine", "t3d", "--procs", "2"]
        ) == 0
        assert "t3d" in capsys.readouterr().out

    def test_unknown_machine_with_faults_is_one_diagnostic(
        self, program_file, capsys
    ):
        # The bad machine must surface as one exit-2 line even when a
        # fault plan is on the command line, not as a traceback.
        assert main(
            ["run", program_file, "--machine", "nope",
             "--faults", "drop=0.5"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "repro: error: unknown machine 'nope'" in captured.err
        assert "cm5" in captured.err

    def test_unknown_memory_model_rejected(self, program_file, capsys):
        assert main(
            ["run", program_file, "--memory-model", "weird"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "unknown memory model 'weird'" in captured.err
        assert "tso" in captured.err

    def test_weak_run_reports_buffer_stats(self, program_file, capsys):
        assert main(
            ["run", program_file, "--procs", "2",
             "--memory-model", "tso", "--drain-seed", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "memory model: tso (drain seed 5" in out
        assert "buffered:" in out

    def test_strip_delays_marked(self, program_file, capsys):
        assert main(
            ["run", program_file, "--procs", "2",
             "--memory-model", "pso", "--strip-delays"]
        ) == 0
        assert "delays stripped" in capsys.readouterr().out


class TestBenchApp:
    def test_health_quick(self, capsys):
        assert main(
            ["bench-app", "health", "--procs", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "O1" in out and "O3" in out


class TestAnalyzeReport:
    def test_report_flag(self, program_file, capsys):
        assert main(["analyze", program_file, "--report"]) == 0
        out = capsys.readouterr().out
        assert "data-data" in out
        assert "must wait for" in out or "waits for" in out

    def test_report_with_witnesses(self, program_file, capsys):
        assert main(
            ["analyze", program_file, "--report", "--witnesses"]
        ) == 0
        out = capsys.readouterr().out
        assert "cycle closed by:" in out

    def test_compile_splitc_emission(self, program_file, capsys):
        assert main(
            ["compile", program_file, "--emit", "--splitc"]
        ) == 0
        out = capsys.readouterr().out
        assert "/* blocking */" in out or "put_ctr" in out
        assert "sync counters:" in out


DEADLOCKER = """
shared flag_t never;
void main() { wait(never); }
"""


class TestRunWithFaults:
    def test_fault_summary_printed(self, program_file, capsys):
        assert main([
            "run", program_file, "--procs", "2",
            "--faults", "drop=0.2,dup=0.1", "--fault-seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault plan:  drop=0.2,dup=0.1 (--fault-seed 3)" in out
        assert "drops:" in out
        assert "duplicates:" in out
        assert "retransmits:" in out

    def test_fault_seed_changes_fault_decisions(
        self, program_file, capsys
    ):
        outputs = []
        for fault_seed in ("1", "2"):
            assert main([
                "run", program_file, "--procs", "2",
                "--faults", "drop=0.4", "--fault-seed", fault_seed,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        # same program, same answer, different loss pattern
        assert all("Data" not in out for out in outputs)
        assert outputs[0] != outputs[1]

    def test_bad_fault_spec_exits_two(self, program_file, capsys):
        for spec, reason in [
            ("drop=7", "outside [0, 1]"),
            # keys of removed modes: latency spikes, link partitions,
            # retry caps, stall windows, per-kind rates
            ("spike=1:-100", "unknown fault key 'spike'"),
            ("partition=5-8@0+100000", "unknown fault key 'partition'"),
            ("retry_cap=2", "unknown fault key 'retry_cap'"),
            ("stall=1@5+10", "unknown fault key 'stall'"),
            ("drop.store_req=0.3", "unknown fault key 'drop.store_req'"),
            ("dup.net_ack=0.2", "unknown fault key 'dup.net_ack'"),
        ]:
            assert main(["run", program_file, "--faults", spec]) == 2, spec
            err = capsys.readouterr().err
            assert err.startswith("repro: error:"), spec
            assert err.count("\n") == 1, err
            assert reason in err, err

    def test_retry_cap_exhaustion_one_line_diagnostic(
        self, program_file, capsys
    ):
        assert main([
            "run", program_file, "--procs", "2",
            "--faults", "drop=1.0",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "undeliverable" in err
        assert "Traceback" not in err

    def test_verbose_prints_traceback(self, program_file, capsys):
        assert main([
            "run", program_file, "--procs", "2",
            "--faults", "drop=1.0", "--verbose",
        ]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "NetworkFault" in err


class TestRunDeadlockDiagnostics:
    @pytest.fixture()
    def deadlock_file(self, tmp_path):
        path = tmp_path / "deadlock.ms"
        path.write_text(DEADLOCKER)
        return str(path)

    def test_one_line_diagnostic_and_hint(self, deadlock_file, capsys):
        assert main(["run", deadlock_file, "--procs", "2"]) == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line]
        assert lines[0].startswith("repro: error:")
        assert "wait never[0]" in lines[0]
        assert "--verbose" in lines[1]
        assert len(lines) == 2

    def test_verbose_includes_forensics_report(
        self, deadlock_file, capsys
    ):
        assert main([
            "run", deadlock_file, "--procs", "2", "--verbose",
        ]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "processors:" in err
        assert "sync objects:" in err


class TestPasses:
    def test_lists_pipelines_and_registry(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        assert "registered pipelines:" in out
        assert "registered passes:" in out
        for level in ("O0", "O1", "O2", "O3", "O4"):
            assert level in out
        assert "split-phase" in out
        assert "analysis-sync" in out


class TestPipelineDebugFlags:
    def test_compile_verify_each_pass(self, program_file, capsys):
        assert main(
            ["compile", program_file, "--verify-each-pass"]
        ) == 0
        assert "reads split-phased" in capsys.readouterr().out

    def test_compile_print_after_pass(self, program_file, capsys):
        assert main(
            ["compile", program_file, "--print-after-pass", "split-phase"]
        ) == 0
        out = capsys.readouterr().out
        assert "; IR after pass split-phase (O3)" in out

    def test_run_accepts_debug_flags(self, program_file, capsys):
        assert main([
            "run", program_file, "--procs", "2", "--verify-each-pass",
        ]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_print_after_unknown_pass_exits_two(self, program_file, capsys):
        for command in ("compile", "run"):
            assert main([
                command, program_file, "--print-after-pass", "split-phase",
                "--print-after-pass", "nosuch",
            ]) == 2
            captured = capsys.readouterr()
            assert not captured.out
            assert captured.err.startswith("repro: error: unknown pass "
                                           "'nosuch' for --print-after-pass")
            assert captured.err.count("\n") == 1, captured.err

    def test_profile_emits_pass_timers(self, program_file, capsys):
        import json

        assert main(["compile", program_file, "--profile"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["version"] == 4
        assert "pass_events" not in payload
        assert "pass.split-phase" in payload["passes"]
        assert "pass.analysis-sync" in payload["passes"]


class TestBrokenPipe:
    """A reader that closes stdout early (``repro passes | head -1``)
    gets no traceback on stderr."""

    @pytest.mark.parametrize("argv", [
        ["passes"],
        ["run", "tests/data/sb.ms", "--procs", "2"],
    ])
    def test_closed_stdout_exits_quietly(self, argv):
        read_end, write_end = os.pipe()
        # The reader is gone before the first line: every write the
        # command makes hits a broken pipe, whatever the timing.
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], cwd=REPO, env=env,
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == EXIT_BROKEN_PIPE


class TestRuntimeFlags:
    """--barrier-topology / --procs limits."""

    def test_run_under_each_topology(self, program_file, capsys):
        outputs = []
        for topology in ("central", "tree"):
            assert main([
                "run", program_file, "--procs", "4",
                "--barrier-topology", topology,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert all("cycles" in out for out in outputs)

    def test_unknown_topology_exits_two(self, program_file, capsys):
        for name in ("mesh", "sense"):
            assert main([
                "run", program_file, "--barrier-topology", name,
            ]) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro: error:")
            assert err.count("\n") == 1, err
            assert f"unknown barrier topology '{name}'" in err
            assert "(known: central, tree)" in err

    def test_procs_over_machine_limit_exits_two(self, program_file, capsys):
        assert main([
            "run", program_file, "--procs", "2048", "--machine", "cm5",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "exceeds" in err and "1024" in err

    def test_engine_knob_is_gone(self, program_file, capsys):
        # One engine: the flag is an argparse usage error and no API
        # layer takes an ``engine`` parameter any more.
        import inspect

        from repro.pipeline.program import CompiledProgram
        from repro.runtime import Simulator, run_module

        with pytest.raises(SystemExit) as exit_info:
            main(["run", program_file, "--engine", "reference"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err
        for fn in (run_module, Simulator.__init__, CompiledProgram.run):
            assert "engine" not in inspect.signature(fn).parameters

    def test_fuzz_accepts_tree_topology(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        assert main([
            "fuzz", "--iterations", "2", "--quiet",
            "--barrier-topology", "tree",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["failures"] == 0
        assert payload["totals"]["runs"] > 0

    def test_fuzz_unknown_level_exits_two(self, capsys):
        assert main(["fuzz", "--iterations", "1", "--levels", "O1,O9"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            "repro: error: unknown optimization level 'O9' in --levels "
            "(known: O0, O1, O2, O3, O4)\n"
        )

    def test_fuzz_unknown_topology_exits_two(self, capsys):
        for name in ("ring", "sense"):
            assert main([
                "fuzz", "--iterations", "1", "--barrier-topology", name,
            ]) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro: error:")
            assert err.count("\n") == 1, err
            assert f"unknown barrier topology '{name}'" in err
