"""All five workloads in one command: untraced sets, then a traced set.

Each run is a subprocess of its own (``python3 -m bench --workload ...``),
so peak RSS belongs to one workload and no run warms the next.  Writes
``bench/out/results.json`` (numbers, environment, run-to-run spread) and
``bench/out/trace.json`` (Chrome trace format: open in chrome://tracing
or https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

from bench import compare
from bench.harness import BENCH_DIR, END_TO_END, OUT_DIR, PER_LAYER
from bench.workloads import WORKLOADS

ROOT = os.path.dirname(BENCH_DIR)


def run_seconds() -> int:
    with open(compare.BENCHMARK_JSON) as handle:
        return json.load(handle)["run_seconds"]


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(workload: str, seed: int, seconds: float, trace: int,
             smoke: bool) -> dict:
    details = os.path.join(OUT_DIR, f"details-{workload}-{trace}.json")
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--details", details]
    if smoke:
        command.append("--smoke")
    subprocess.run(command, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    with open(details) as handle:
        result = json.load(handle)
    os.unlink(details)
    return result


def print_table(title: str, catalogue, rows: Dict[str, Dict[str, float]]
                ) -> None:
    """One line per metric, one column per workload."""
    print(f"\n== {title}")
    print(f"{'metric':34s} {'unit':7s}"
          + "".join(f"{name:>16s}" for name in rows))
    for name, unit, *_rest in catalogue:
        cells = [rows[workload].get(name, 0.0) for workload in rows]
        if any(cells):
            print(f"{name:34s} {unit:7s}"
                  + "".join(f"{cell:16.4f}" for cell in cells))


def run_suite(seed: int, seconds: float, repeat: int, smoke: bool) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    results: Dict[str, dict] = {}
    for name, cls in WORKLOADS.items():
        results[name] = {
            "why": cls.why, "work_unit": cls.unit,
            "attempted": [], "failed": [], "passes": [],
            "end_to_end": {
                metric: {"unit": unit, "values": []}
                for metric, unit, _better, _bound in END_TO_END
            },
        }
    for index in range(repeat):
        for name in WORKLOADS:
            print(f"set {index + 1}/{repeat}: {name}", file=sys.stderr)
            run = run_once(name, seed, seconds, 0, smoke)
            entry = results[name]
            entry["sizes"] = run["sizes"]
            entry["attempted"].append(run["attempted"])
            entry["failed"].append(run["failed"])
            entry["passes"].append(run["passes"])
            for metric, value in run["metrics"].items():
                entry["end_to_end"][metric]["values"].append(
                    value["value"])

    events: List[dict] = []
    for name in WORKLOADS:
        print(f"traced: {name}", file=sys.stderr)
        run = run_once(name, seed, seconds, 1, smoke)
        entry = results[name]
        entry["per_layer"] = run["metrics"]
        entry["traced_attempted"] = run["attempted"]
        entry["traced_failed"] = run["failed"]
        trace_path = os.path.join(OUT_DIR, f"trace-{name}.json")
        with open(trace_path) as handle:
            events.extend(json.load(handle)["traceEvents"])
        os.unlink(trace_path)

    for entry in results.values():
        for metric in entry["end_to_end"].values():
            metric["median"] = statistics.median(metric["values"])
            # Of the sets of this command; meaningful from --repeat 3.
            metric["spread"] = compare.spread(metric["values"])
        entry["failed_share"] = (
            sum(entry["failed"]) / sum(entry["attempted"]))

    document = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "seed": seed,
            "run_seconds": seconds,
            "sets": repeat,
            "smoke": smoke,
        },
        "workloads": results,
    }
    with open(os.path.join(OUT_DIR, "results.json"), "w") as handle:
        json.dump(document, handle, indent=1)
    with open(os.path.join(OUT_DIR, "trace.json"), "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

    print_table(
        f"end to end (untraced, median of {repeat} set(s), seed {seed})",
        END_TO_END,
        {name: {metric: data["median"]
                for metric, data in entry["end_to_end"].items()}
         for name, entry in results.items()})
    print(f"{'failed_share':34s} {'ratio':7s}" + "".join(
        f"{entry['failed_share']:16.4f}" for entry in results.values()))
    print_table(
        "per layer (traced run)", PER_LAYER,
        {name: {metric: data["value"]
                for metric, data in entry["per_layer"].items()}
         for name, entry in results.items()})
    print(f"\nwrote {os.path.relpath(OUT_DIR)}/results.json and trace.json")

    failed = any(entry["failed_share"] or entry["traced_failed"]
                 for entry in results.values())
    if repeat >= 2 and not smoke:
        # The same code twice: the first half of the sets against the
        # second must show no ``worse`` row.  (Smoke passes last
        # milliseconds: their timings say nothing.)
        print("\n== first sets (A) against last sets (B)")
        lines, regressed = compare.compare(
            _subset(document, slice(0, repeat // 2)),
            _subset(document, slice(repeat // 2, repeat)))
        print("\n".join(lines))
        failed |= regressed
    return 1 if failed else 0


def _subset(document: dict, sets: slice) -> dict:
    """``document`` restricted to some of its sets."""
    workloads = {}
    for name, entry in document["workloads"].items():
        workloads[name] = {
            "attempted": entry["attempted"][sets],
            "failed": entry["failed"][sets],
            "end_to_end": {
                metric: {"values": data["values"][sets]}
                for metric, data in entry["end_to_end"].items()
            },
        }
    return {"workloads": workloads}
