"""The paper's evaluation as one golden table.

``tests/data/paper_golden.json`` holds every number EXPERIMENTS.md's
paper tables print: Table 1, Fig. 12 at the benchmark's ``fig12_64``
sizes (O1–O4 × CM-5/T3D/DASH; each cell a dict, so a by-cause split
of the wait joins it as one more key), Fig. 13, §8's delay-set sizes and
the flops sweep.  The recompute test derives every cell again (each
Fig. 12/13 run checked against the kernel's reference model) and
compare exactly; the shape tests assert the paper's claims over the
file; the docs test checks every cell of EXPERIMENTS.md's tables.
Regenerate (only when a simulated number is *meant* to change; this
also prints the tables for EXPERIMENTS.md)::

    python tests/integration/test_paper_golden.py
"""

import json
import math
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    sys.path[:0] = [str(REPO / "src"), str(REPO)]

import pytest

from repro import OptLevel, analyze_source, compile_source
from repro.analysis.delays import AnalysisLevel
from repro.apps import APPS, em3d, epithelial, ocean
from repro.apps.base import assert_close
from repro.compiler import open_session
from repro.runtime import CM5, DASH, T3D
from tests.helpers import FIGURE_1, FIGURE_5

GOLDEN_PATH = REPO / "tests" / "data" / "paper_golden.json"
MACHINES = (CM5, T3D, DASH)
LEVELS = ("O1", "O2", "O3", "O4")
#: Table 1 as printed in the paper: machine -> (remote, local) cycles.
PAPER_TABLE1 = {"cm5": (400, 30), "t3d": (85, 23), "dash": (110, 26)}
#: The four kernels the paper calls communication-bound.
COMM_BOUND = ("ocean", "em3d", "epithelial", "cholesky")


def _reference(arrays):
    """A snapshot check against ``arrays()``: {name: expected values}."""
    def check(snapshot):
        for name, values in arrays().items():
            for index, value in enumerate(values):
                assert_close(snapshot[name][index], value, f"{name}[{index}]")
    return check


def _app(name, procs):
    return (APPS[name].source(procs), procs,
            lambda snapshot: APPS[name].check(snapshot, procs))


#: Fig. 12's kernels: name -> (source, procs, snapshot check).
FIG12_KERNELS = {
    "em3d": (em3d.scaled_source(64, 8, 2), 64, _reference(
        lambda: dict(zip("EH", em3d.scaled_reference(64, 8, 2))))),
    "ocean": (ocean.scaled_source(64, 4, 1), 64, _reference(lambda: {"G": [
        v for row in ocean.scaled_reference(64, 4, 1) for v in row]})),
    "epithelial": _app("epithelial", 32),
    "cholesky": _app("cholesky", 32),
    "health": _app("health", 32),
}

#: Table 1's probe: processor 1 reads element 0 (remote) and processor
#: 0 reads it too (local); the empty program's clocks are subtracted.
PROBE = """
shared int A[2];
void main() {
  int x;
  if (MYPROC == 1) { x = A[0]; }
  if (MYPROC == 0) { x = A[0]; }
}
"""
EMPTY = "shared int A[2];\nvoid main() {\n  int x;\n}\n"


def _levels(source, levels):
    return open_session(source).compile_levels(
        [OptLevel(level) for level in levels])


def observe_table1():
    probe, empty = (compile_source(s, OptLevel.O0) for s in (PROBE, EMPTY))
    table = {}
    for machine in MACHINES:
        clocks, base = (p.run(2, machine).per_proc_cycles
                        for p in (probe, empty))
        table[machine.name] = {"remote": clocks[1] - base[1],
                               "local": clocks[0] - base[0]}
    return table


def observe_fig12():
    table = {}
    for name, (source, procs, check) in FIG12_KERNELS.items():
        table[name] = {}
        for level, program in zip(LEVELS, _levels(source, LEVELS)):
            table[name][level] = {}
            for machine in MACHINES:
                result = program.run(procs, machine)
                check(result.snapshot())
                table[name][level][machine.name] = {
                    "cycles": result.cycles,
                    "messages": result.total_messages,
                    "wait_share": (result.total_wait_cycles
                                   / sum(result.per_proc_cycles)),
                }
    return table


def observe_fig13():
    table = {}
    for procs in (1, 2, 4, 8, 16, 32):
        table[str(procs)] = {}
        source = APPS["epithelial"].source(procs)
        for level, program in zip(LEVELS, _levels(source, LEVELS[:3])):
            result = program.run(procs, CM5)
            APPS["epithelial"].check(result.snapshot(), procs)
            table[str(procs)][level] = result.cycles
    return table


def observe_delay_sets():
    programs = {"figure-1": FIGURE_1, "figure-5": FIGURE_5}
    for name, app in sorted(APPS.items()):
        programs[name] = app.source(
            8 if 8 in app.supported_procs else app.supported_procs[-1])
    table = {}
    for name, source in programs.items():
        sas = analyze_source(source, AnalysisLevel.SAS).stats
        sync = analyze_source(source, AnalysisLevel.SYNC).stats
        table[name] = {
            "accesses": sas.num_accesses, "conflicts": sas.conflict_pairs,
            "d_sas": sas.delay_size, "d_sync": sync.delay_size,
            "r": sync.precedence_size,
        }
    return table


def observe_flops():
    marker = f"r < {epithelial.FLOPS};"
    assert marker in epithelial.source(8)
    table = {}
    for flops in (0, 4, 16, 64, 256):
        source = epithelial.source(8).replace(marker, f"r < {flops};")
        base, optimized = (program.run(8, CM5)
                           for program in _levels(source, ("O1", "O3")))
        table[str(flops)] = {"O1": base.cycles, "O3": optimized.cycles,
                             "utilization_O3": optimized.utilization()}
    return table


SECTIONS = {
    "table1": observe_table1,
    "fig12": observe_fig12,
    "fig13": observe_fig13,
    "delay_sets": observe_delay_sets,
    "flops": observe_flops,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


# -- the recompute test ------------------------------------------------------


def test_every_cell_matches_golden(golden):
    assert {section: observe() for section, observe in SECTIONS.items()} \
        == golden


# -- the shape tests: the paper's claims over the file -----------------------


def _o3_ratio(golden, kernel, machine="cm5"):
    cells = golden["fig12"][kernel]
    return cells["O3"][machine]["cycles"] / cells["O1"][machine]["cycles"]


def test_table1_shape(golden):
    """The models are calibrated to Table 1 (the deltas add the probe's
    guard and ALU work), and the paper's remote ordering holds."""
    rows = golden["table1"]
    for machine, (remote, local) in PAPER_TABLE1.items():
        assert abs(rows[machine]["remote"] - remote) <= 20, machine
        assert abs(rows[machine]["local"] - local) <= 20, machine
    assert rows["t3d"]["remote"] < rows["dash"]["remote"] < rows["cm5"]["remote"]


@pytest.mark.parametrize("machine", [m.name for m in MACHINES])
def test_fig12_monotone_per_kernel(golden, machine):
    """Each level is as fast as the one below it, sends no more
    messages, and pipelining spends less of the run waiting (§8)."""
    for kernel, cells in golden["fig12"].items():
        cells = [cells[level][machine] for level in LEVELS]
        for lower, higher in zip(cells, cells[1:]):
            assert higher["cycles"] <= lower["cycles"], kernel
            assert higher["messages"] <= lower["messages"], kernel
        assert cells[1]["wait_share"] <= cells[0]["wait_share"], kernel


def test_fig12_gains(golden):
    """>= 20 % on the communication-bound kernels; health (lock-bound)
    gains least but gains; epithelial's scatter sheds its acks (§6)."""
    for kernel in COMM_BOUND:
        assert _o3_ratio(golden, kernel) <= 0.80, kernel
    health = _o3_ratio(golden, "health")
    assert max(_o3_ratio(golden, k) for k in COMM_BOUND) <= health <= 0.95
    messages = {level: cell["cm5"]["messages"]
                for level, cell in golden["fig12"]["epithelial"].items()}
    assert messages["O3"] < messages["O2"]


def test_fig13_shape(golden):
    """The curves scale, and the optimized levels are strictly faster
    at every processor count above 1 (the paper's "scale better")."""
    cycles = {int(procs): row for procs, row in golden["fig13"].items()}
    for level in LEVELS[:3]:
        # The scaling regime: every level gets faster from 2 to 16.
        for fewer, more in ((2, 4), (4, 8), (8, 16)):
            assert cycles[more][level] < cycles[fewer][level], level
    # Optimized code already wins at 2 processors; O1 need not.
    assert cycles[2]["O3"] < cycles[1]["O3"]
    for procs, row in cycles.items():
        if procs > 1:
            assert row["O3"] < row["O2"] < row["O1"], procs
        if procs >= 8:
            assert row["O3"] < 0.85 * row["O1"], procs


def test_delay_sets_shape(golden):
    rows = golden["delay_sets"]
    # Figure 5's exact numbers from the paper's discussion.
    assert (rows["figure-5"]["d_sas"], rows["figure-5"]["d_sync"]) == (6, 4)
    for name, row in rows.items():
        assert row["d_sync"] <= row["d_sas"], name
    for name in COMM_BOUND:
        assert rows[name]["d_sync"] < rows[name]["d_sas"], name


def test_flops_gain_fades(golden):
    gains = [row["O1"] / row["O3"] for row in golden["flops"].values()]
    assert gains[0] == max(gains) and gains[-1] == min(gains)
    assert gains[0] > 1.5 and gains[-1] < gains[0] * 0.75


# -- the docs test: EXPERIMENTS.md's tables are the file's cells -------------


def render_tables(golden):
    """{EXPERIMENTS.md heading: body rows of its first table}."""
    names = {"cm5": "CM-5", "t3d": "T3D", "dash": "DASH"}
    fig13, tables = golden["fig13"], {}
    tables["Table 1 — access latencies"] = [
        [names[m], str(paper[0]), str(golden["table1"][m]["remote"]),
         str(paper[1]), str(golden["table1"][m]["local"])]
        for m, paper in PAPER_TABLE1.items()]
    rows = tables["Figure 12 — normalized execution times"] = []
    for m in names:
        for kernel, cells in golden["fig12"].items():
            rows.append(
                [f"{kernel} @ {FIG12_KERNELS[kernel][1]}", names[m]]
                + [str(cells[level][m]["cycles"]) for level in LEVELS]
                + [f"{_o3_ratio(golden, kernel, m):.2f}"]
                + [" → ".join(f"{cells[level][m]['wait_share']:.2f}"
                              for level in ("O1", "O3"))]
                + [" → ".join(str(cells[level][m]["messages"])
                              for level in ("O1", "O3"))])
        geomean = math.exp(sum(math.log(_o3_ratio(golden, k, m))
                               for k in golden["fig12"]) / len(golden["fig12"]))
        rows.append(["geomean", names[m], "", "", "", "", f"{geomean:.4f}",
                     "", ""])
    tables["Figure 13 — Epithelial speedup curves"] = [
        [procs] + [f"{fig13['1'][level] / row[level]:.2f}" for level in row]
        + [str(cycles) for cycles in row.values()]
        for procs, row in fig13.items()]
    tables['§8 claim — "much smaller delay sets"'] = [
        [name, str(row["accesses"]), str(row["conflicts"]), str(row["d_sas"]),
         str(row["d_sync"]), f"{100 * (1 - row['d_sync'] / row['d_sas']):.0f} %",
         str(row["r"])]
        for name, row in golden["delay_sets"].items()]
    tables["Ablation — communication/computation ratio"] = [
        [flops, str(row["O1"]), str(row["O3"]),
         f"{row['O1'] / row['O3']:.2f}×", f"{row['utilization_O3']:.2f}"]
        for flops, row in golden["flops"].items()]
    return tables


def documented_tables():
    """{heading: body rows of the first table under each ``## ``
    heading of EXPERIMENTS.md}."""
    text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    tables = {}
    for section in re.split(r"^## ", text, flags=re.MULTILINE)[1:]:
        heading, _, body = section.partition("\n")
        table = re.search(r"^\|.*\n\|[-|]*\n((?:\|.*\n)*)", body, re.MULTILINE)
        if table:
            tables[heading.strip()] = [
                [cell.strip() for cell in line.strip("|").split("|")]
                for line in table.group(1).splitlines()]
    return tables


def test_experiments_tables_match_golden(golden):
    expected = render_tables(golden)
    documented = documented_tables()
    assert {heading: documented.get(heading) for heading in expected} \
        == expected


if __name__ == "__main__":
    table = {section: observe() for section, observe in SECTIONS.items()}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1) + "\n")
    for heading, rows in render_tables(table).items():
        print(f"## {heading}\n" + "".join(
            "| " + " | ".join(row) + " |\n" for row in rows))
