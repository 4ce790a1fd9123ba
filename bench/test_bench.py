"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

Not part of tier-1 (``testpaths`` is ``tests``).  Everything runs at
``--smoke`` size.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from bench import compare
from bench.harness import END_TO_END, PER_LAYER, run_workload
from bench.serve_mix import ServeMix
from bench.simulate import SimMsg
from bench.trace import OFF, Tracer
from bench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE_SECONDS = 0.3

#: Metrics that must repeat exactly for one seed.
EXACT = (
    "lang.source_lines", "ir.instrs_in", "ir.instrs_out",
    "analysis.accesses", "analysis.delays_sas", "analysis.delays_sync",
    "codegen.sync_moves", "codegen.one_way_conversions",
    "codegen.counters_after", "runtime.instructions", "runtime.messages",
    "runtime.sim_cycles", "runtime.cycles_O1", "runtime.cycles_O3",
    "runtime.fig12_cycles_ratio", "runtime.retransmits",
    "runtime.tree_barrier_cycles",
)


@pytest.fixture(scope="module")
def smoke_runs():
    """Every workload once untraced and once traced, timed."""
    start = time.perf_counter()
    runs = {
        (name, traced): run_workload(cls, 0, SMOKE_SECONDS, traced,
                                     smoke=True)
        for name, cls in WORKLOADS.items() for traced in (False, True)
    }
    return runs, time.perf_counter() - start


def test_smoke_is_quick_and_emits_every_metric(smoke_runs):
    runs, seconds = smoke_runs
    assert seconds < 30
    with open(compare.BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in WORKLOADS:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            run = runs[name, traced]
            assert run.failed == 0 and run.attempted >= 1
            reported = {metric: unit
                        for metric, (_value, unit) in run.metrics.items()}
            assert reported == {m["name"]: m["unit"] for m in spec[key]}
        for metric, (value, _unit) in runs[name, False].metrics.items():
            assert value > 0, (name, metric)
    # Every per-layer metric is exercised by at least one workload,
    # except counts that are legitimately zero on this corpus.
    silent = {
        metric for metric, _unit, _better in PER_LAYER
        if not any(runs[name, True].metrics[metric][0]
                   for name in WORKLOADS)
    }
    assert silent <= {
        "codegen.gets_eliminated", "codegen.puts_eliminated",
        "serve.dedup_hits", "serve.overloaded", "bench.failed_share",
    }


def test_benchmark_json_matches_the_catalogue():
    with open(compare.BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}


def test_same_seed_same_inputs_and_counts(smoke_runs):
    runs, _seconds = smoke_runs
    for name in ("compile_cold", "fig12_64", "serve_mix"):
        again = run_workload(WORKLOADS[name], 0, SMOKE_SECONDS, True,
                             smoke=True)
        first = runs[name, True]
        assert again.sizes == first.sizes
        for metric in EXACT:
            assert again.metrics[metric] == first.metrics[metric], metric


def test_other_seed_other_inputs(smoke_runs):
    runs, _seconds = smoke_runs
    for name, digest in (("compile_cold", "corpus_digest"),
                         ("serve_mix", "requests_digest")):
        other = run_workload(WORKLOADS[name], 1, SMOKE_SECONDS, False,
                             smoke=True)
        assert other.sizes[digest] != runs[name, False].sizes[digest]


def test_wrong_snapshot_is_a_failed_operation(tmp_path):
    workload = SimMsg(0, True, str(tmp_path))
    workload.setup()
    workload.run_pass(OFF, 0)
    assert workload.verify() == 0
    op, result = next(iter(workload.results.items()))
    snapshot = result.snapshot()
    snapshot["E"][0] += 1.0
    workload.results[op] = SimpleNamespace(
        snapshot=lambda: snapshot, cycles=result.cycles)
    assert workload.verify() == 1


def test_refused_request_is_a_failed_operation(tmp_path):
    workload = ServeMix(0, True, str(tmp_path))
    try:
        workload.setup()
        workload.run_pass(OFF, 0)
        assert workload.verify() == 0
        daemon = workload.daemon
        daemon.process.kill()
        daemon.process.wait(timeout=10)
        request = workload.hot["compile"][0]
        reply = workload._send(OFF, daemon.clients[0], request)
        assert reply.result is None and reply.error == "transport"
        workload.replies.append(reply)
        assert workload.verify() == 1
    finally:
        workload.close()
    # Daemon, socket and store are gone.
    assert daemon.process.poll() is not None
    assert not os.path.exists(daemon.directory)


def test_command_line_contract():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "sim_msg256",
         "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m[0] for m in END_TO_END}
    assert all(set(value) == {"value", "unit"}
               for value in result["metrics"].values())


def test_tracer_self_time():
    tracer = Tracer("t")
    with tracer.span("bench.pass", "p"):
        with tracer.span("runtime.run"):
            time.sleep(0.02)
        time.sleep(0.01)
    outer = next(s for s in tracer.spans if s.name == "bench.pass")
    inner = next(s for s in tracer.spans if s.name == "runtime.run")
    assert inner.parent is outer and inner.op == "p"
    assert outer.self_seconds == pytest.approx(
        outer.seconds - inner.seconds)
    by_layer = tracer.self_seconds_by_layer()
    assert sum(by_layer.values()) == pytest.approx(outer.seconds)
    assert [e["name"] for e in tracer.chrome_events()] == [
        "process_name", "bench.pass", "runtime.run"]


def _results(wall, failed=0):
    metrics = {name: {"values": [1.0, 1.0, 1.0]}
               for name, _unit, _better, _bound in END_TO_END}
    metrics["wall_s"] = {"values": list(wall)}
    return {"workloads": {"w": {
        "attempted": [10] * len(wall), "failed": [failed] * len(wall),
        "end_to_end": metrics}}}


def test_compare_verdicts():
    base = _results([1.00, 1.01, 1.02])
    _better, bound = compare.bounds()["wall_s"]

    def wall_row(b):
        lines, regressed = compare.compare(base, b)
        row = next(line for line in lines if " wall_s " in line)
        return row.split()[-1], regressed

    assert wall_row(_results([1.00, 1.02, 1.01])) == ("same", False)
    worse = 1.01 * (1 + bound) + 0.02
    assert wall_row(_results([worse, worse + 0.01, worse + 0.02])) == (
        "worse", True)
    # Medians agree but B's runs lie wider apart than the bound.
    assert wall_row(_results([1.01 - bound, 1.01, 1.01 + bound])) == (
        "unresolved", False)
    # As wide, yet every run of B beats every run of A.
    assert wall_row(_results([0.9 - 2 * bound, 0.9 - bound, 0.9])) == (
        "same", False)
    _lines, regressed = compare.compare(base, _results([1.0] * 3, failed=1))
    assert regressed
