"""Golden table for the simulator-visible opcodes.

``reference_engine.py`` defers every shared, split-phase and sync
opcode to the production ``Processor._execute``, so the parity suite
compares that code with itself.  This table is the oracle for it:
``tests/data/runtime_golden.json`` holds, for 125 cells, what a run
exposes — cycle, instruction and per-kind message counts, retransmits,
weak-memory counters, and sha256 digests of the per-processor
clocks/waits, the final snapshot and the trace — and every cell must
reproduce it exactly.

Cells: the five §8 kernels at 8 processors × O0–O4 × CM-5/T3D/DASH;
each kernel at O0 and O3 under TSO and PSO (jitter 50), under a lossy
network, and traced; em3d@256 and ocean@256 (the benchmark's cells)
once each.  The kernels are well synchronized — every buffered write
of theirs leaves through a fence — so four more cells run a racy
program with its delay fences stripped, traced, under TSO and PSO:
they cover store-to-load forwarding and the background drain.

Regenerate (only when simulated behaviour is *meant* to change)::

    python tests/runtime/test_runtime_golden.py
"""

import hashlib
import json
import os
import sys
from dataclasses import replace

if __name__ == "__main__":
    _ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

import pytest

from repro import OptLevel, compile_source
from repro.apps import APPS, em3d, ocean
from repro.runtime import CM5, DASH, T3D, FaultPlan

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data", "runtime_golden.json",
)

PROCS = 8
MODES = {
    "tso": dict(machine=CM5.with_jitter(50).with_memory_model("tso")),
    "pso": dict(machine=CM5.with_jitter(50).with_memory_model("pso")),
    "lossy": dict(
        machine=CM5,
        fault_plan=FaultPlan(drop=0.05, duplicate=0.02, seed=3),
    ),
    "traced": dict(machine=CM5, trace=True),
}
BIG = {
    "em3d256": (
        lambda: em3d.scaled_source(256, 8, 2),
        (OptLevel.O1, OptLevel.O3, OptLevel.O4),
    ),
    "ocean256": (
        lambda: ocean.scaled_source(256, 4, 1),
        (OptLevel.O0, OptLevel.O3, OptLevel.O4),
    ),
}

#: Writes own elements, reads them back while they are still buffered,
#: then reads a neighbour's: forwards, background drains and (stripped
#: of its delay fences) reorderings the two models resolve differently.
RACY = """
shared int X[32];
shared int R[32];
void main() {
  int base = MYPROC * 4;
  int nb = ((MYPROC + 1) % PROCS) * 4;
  for (int i = 0; i < 4; i = i + 1) { X[base + i] = MYPROC + i + 1; }
  for (int i = 0; i < 4; i = i + 1) {
    int own = X[base + 3 - i];
    int theirs = X[nb + i];
    R[base + i] = own * 100 + theirs;
  }
}
"""
RACY_MODES = {
    model: dict(
        machine=CM5.with_jitter(50).with_memory_model(model, 1, (20, 3000)),
        trace=True,
    )
    for model in ("tso", "pso")
}


def _cells():
    """cell id -> (kernel, level, procs, run options)."""
    cells = {}
    for name in sorted(APPS):
        for level in OptLevel:
            for machine in (CM5, T3D, DASH):
                cells[f"{name}/{level.value}/{machine.name}"] = (
                    name, level, PROCS, dict(machine=machine))
        for level in (OptLevel.O0, OptLevel.O3):
            for mode, options in MODES.items():
                cells[f"{name}/{level.value}/{mode}"] = (
                    name, level, PROCS, options)
    for name, (_source, levels) in BIG.items():
        for level in levels:
            cells[f"{name}/{level.value}/{CM5.name}"] = (
                name, level, 256, dict(machine=CM5))
    for level in (OptLevel.O0, OptLevel.O3):
        for model, options in RACY_MODES.items():
            cells[f"racy/{level.value}/{model}-stripped"] = (
                "racy", level, PROCS, options)
    return cells


CELLS = _cells()
_PROGRAMS = {}


def _program(kernel, level):
    key = (kernel, level)
    if key not in _PROGRAMS:
        if kernel == "racy":
            program = compile_source(RACY, level).without_delay_fences()
        elif kernel in BIG:
            program = compile_source(BIG[kernel][0](), level)
        else:
            program = compile_source(APPS[kernel].source(PROCS), level)
        _PROGRAMS[key] = program
    return _PROGRAMS[key]


def _digest(value):
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _trace_rows(trace):
    if trace is None:
        return None
    return [
        [[e.op, e.location, e.value, e.forwarded] for e in events]
        for events in trace.per_proc
    ]


def observe(cell, machine=None):
    """The golden row for one cell (``machine`` overrides the cell's,
    for the teeth test)."""
    kernel, level, procs, options = CELLS[cell]
    options = dict(options)
    if machine is not None:
        options["machine"] = machine
    result = _program(kernel, level).run(procs, **options)
    stats = result.network.stats
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "total_messages": result.total_messages,
        "messages_by_kind": {
            kind.value: count
            for kind, count in sorted(
                stats.messages_by_kind.items(), key=lambda kv: kv[0].value)
        },
        "retransmits": result.retransmits,
        "weak_stats": result.weak_stats,
        "clocks": _digest([result.per_proc_cycles, result.per_proc_wait]),
        "snapshot": _digest(result.snapshot()),
        "trace": (_digest(_trace_rows(result.trace))
                  if result.trace is not None else None),
    }


def _golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    return _golden()


def test_table_covers_exactly_the_cells(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_matches_golden(cell, golden):
    assert observe(cell) == golden[cell]


def test_modes_exercise_what_they_name(golden):
    """A mode that stopped buffering, dropping or tracing would leave
    its cells passing for the wrong reason."""
    for name in sorted(APPS):
        for level in ("O0", "O3"):
            for model in ("tso", "pso"):
                row = golden[f"{name}/{level}/{model}"]
                assert row["weak_stats"]["buffered_writes"] > 0
            assert golden[f"{name}/{level}/lossy"]["retransmits"] > 0
            assert golden[f"{name}/{level}/traced"]["trace"] is not None
    for level in ("O0", "O3"):
        rows = [golden[f"racy/{level}/{model}-stripped"]
                for model in ("tso", "pso")]
        for row in rows:
            assert row["weak_stats"]["forwards"] > 0
            assert row["weak_stats"]["drained"] > 0
        assert rows[0]["snapshot"] != rows[1]["snapshot"]


def test_one_cycle_of_remote_handling_is_caught(golden):
    """Teeth: charging one extra cycle per home-side service must move
    a message-bound cell off the table."""
    cell = "em3d/O1/cm5"
    slower = replace(CM5, remote_handle=CM5.remote_handle + 1)
    assert observe(cell) == golden[cell]
    assert observe(cell, machine=slower) != golden[cell]


if __name__ == "__main__":
    table = {cell: observe(cell) for cell in sorted(CELLS)}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} cells to {GOLDEN_PATH}")
