"""Command-line interface tests."""

import pytest

from repro.cli import main
from tests.helpers import FIGURE_1


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
        assert "fault plan:  drop=0.2,dup=0.1" in out
        assert "retransmits:" in out
        assert "duplicates:" in out

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
        assert main(["run", program_file, "--faults", "drop=7"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "outside [0, 1]" in err

    def test_retry_cap_exhaustion_one_line_diagnostic(
        self, program_file, capsys
    ):
        assert main([
            "run", program_file, "--procs", "2",
            "--faults", "drop=1.0,retry_cap=2",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "undeliverable" in err
        assert "Traceback" not in err

    def test_verbose_prints_traceback(self, program_file, capsys):
        assert main([
            "run", program_file, "--procs", "2",
            "--faults", "drop=1.0,retry_cap=2", "--verbose",
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

    def test_profile_emits_pass_events(self, program_file, capsys):
        import json

        assert main(["compile", program_file, "--profile"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        names = [e["pass"] for e in payload["pass_events"]]
        assert "split-phase" in names
        assert "analysis-sync" in names


class TestRuntimeFlags:
    """--barrier-topology / --tree-fanin / --procs limits."""

    def test_run_under_each_topology(self, program_file, capsys):
        outputs = []
        for topology in ("central", "sense", "tree"):
            assert main([
                "run", program_file, "--procs", "4",
                "--barrier-topology", topology,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert all("cycles" in out for out in outputs)

    def test_unknown_topology_exits_two(self, program_file, capsys):
        assert main([
            "run", program_file, "--barrier-topology", "mesh",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "unknown barrier topology 'mesh'" in err
        assert "central" in err and "tree" in err

    def test_non_power_of_two_fanin_exits_two(self, program_file, capsys):
        assert main([
            "run", program_file, "--barrier-topology", "tree",
            "--tree-fanin", "3",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "not a power of two" in err

    def test_fanin_without_tree_is_ignored(self, program_file, capsys):
        # --tree-fanin only matters under --barrier-topology tree; a
        # bogus value with the default central topology must not trip.
        assert main([
            "run", program_file, "--procs", "2", "--tree-fanin", "3",
        ]) == 0
        assert "cycles" in capsys.readouterr().out

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

    def test_fuzz_unknown_topology_exits_two(self, capsys):
        assert main([
            "fuzz", "--iterations", "1", "--barrier-topology", "ring",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "unknown barrier topology 'ring'" in err
