"""Self-contained repro bundles for fuzz failures.

A bundle is one directory under ``fuzz-failures/`` holding everything
needed to reproduce and debug one oracle failure offline:

* ``program.ms`` — the minimized program;
* ``original.ms`` — the unreduced program the campaign generated;
* ``repro.json`` — generator seed/profile/procs, the adversarial
  schedules (network seed, machine, jitter), the barrier topology, the
  optimization levels, the failing oracle with its detail, the trace
  digest, and a ready-to-paste reproduction hint.

Bundles are plain files: they can be attached to a CI artifact, mailed
around, and replayed with nothing but this repository.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.fuzz.oracles import OracleFailure
from repro.fuzz.progen import GeneratedProgram

BUNDLE_SCHEMA = 1


def bundle_name(failure: OracleFailure,
                program: GeneratedProgram, index: int) -> str:
    return (
        f"{failure.oracle}-{program.profile}-seed{program.seed}-{index:03d}"
    )


def write_bundle(
    failures_dir: str,
    failure: OracleFailure,
    minimized: GeneratedProgram,
    original: GeneratedProgram,
    campaign_meta: dict,
    index: int = 0,
) -> str:
    """Writes one failure bundle; returns the bundle directory path."""
    directory = os.path.join(
        failures_dir, bundle_name(failure, original, index)
    )
    os.makedirs(directory, exist_ok=True)

    with open(os.path.join(directory, "program.ms"), "w",
              encoding="utf-8") as handle:
        handle.write(minimized.source)
    with open(os.path.join(directory, "original.ms"), "w",
              encoding="utf-8") as handle:
        handle.write(original.source)

    manifest = {
        "schema": BUNDLE_SCHEMA,
        "oracle": failure.oracle,
        "detail": failure.detail,
        "level": failure.level,
        "schedule": failure.schedule,
        "trace_digest": failure.trace_digest,
        "stripped": failure.stripped,
        "generator": {
            "seed": original.seed,
            "profile": original.profile,
            "procs": original.procs,
            "num_phases": len(original.phases),
        },
        "minimized": {
            "procs": minimized.procs,
            "num_phases": len(minimized.phases),
        },
        "campaign": campaign_meta,
        "repro_hint": _repro_hint(
            minimized, failure, campaign_meta["barrier_topology"]
        ),
    }
    with open(os.path.join(directory, "repro.json"), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return directory


def _repro_hint(program: GeneratedProgram, failure: OracleFailure,
                topology: str) -> str:
    schedule = failure.schedule or {}
    machine = schedule.get("machine", "cm5")
    seed = schedule.get("net_seed", 0)
    level = failure.level or "O3"
    if level not in ("O0", "O1", "O2", "O3", "O4"):
        level = "O3"
    barrier = ""
    if topology != "central":
        barrier = f" --barrier-topology {topology}"
    faults = ""
    if schedule.get("faults"):
        faults = (
            f" --faults '{schedule['faults']}'"
            f" --fault-seed {schedule.get('fault_seed', 0)}"
        )
    weak = ""
    if schedule.get("memory_model"):
        weak = (
            f" --memory-model {schedule['memory_model']}"
            f" --drain-seed {schedule.get('drain_seed', 0)}"
        )
        if failure.stripped:
            weak += " --strip-delays"
    jitter = ""
    if schedule.get("jitter"):
        jitter = (
            f"; jitter {schedule['jitter']} is not replayed: "
            f"repro run has no jitter flag"
        )
    return (
        f"repro run program.ms --opt {level} --procs {program.procs} "
        f"--machine {machine} --seed {seed}{barrier}{faults}{weak} "
        f"--dump 8   "
        f"# compare against --opt O0{jitter}"
    )


def read_bundle(directory: str) -> Optional[dict]:
    """Loads a bundle's manifest (None when absent/corrupt)."""
    try:
        with open(os.path.join(directory, "repro.json"), "r",
                  encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
