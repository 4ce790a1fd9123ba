"""Golden table for the delay sets the analysis computes.

``tests/data/delay_golden.json`` holds, for each program, the size of
the Shasha–Snir delay set (``sas``), the size of the sync-aware one
(``sync``) and a sha256 of the sorted SYNC ``delays_by_index`` pairs.
A change to ``analysis/`` that is meant to keep every delay set must
leave every row as it is.

Programs: the five §8 kernels at 8 processors, the paper's Figures 1
and 5, the store-buffering litmus ``tests/data/sb.ms``, the barrier
ladder at 32 and 64 accesses, and four seeds of every progen profile
at 4 processors.

Regenerate (only when delay sets are *meant* to change)::

    python tests/analysis/test_delay_golden.py
"""

import hashlib
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    _ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

import pytest

from repro.analysis.delays import AnalysisLevel
from repro.apps import APPS
from repro.compiler import open_session
from repro.fuzz.progen import PROFILES, generate_program
from tests.helpers import FIGURE_1, FIGURE_5, barrier_ladder

DATA = Path(__file__).resolve().parents[1] / "data"
GOLDEN_PATH = DATA / "delay_golden.json"

PROCS = 8
PROGEN_SEEDS = 4
PROGEN_PROCS = 4


def _programs():
    """program name -> MiniSplit source."""
    programs = {f"{name}@{PROCS}": APPS[name].source(PROCS)
                for name in sorted(APPS)}
    programs["figure1"] = FIGURE_1
    programs["figure5"] = FIGURE_5
    programs["sb.ms"] = (DATA / "sb.ms").read_text()
    for size in (32, 64):
        programs[f"ladder{size}"] = barrier_ladder(size)
    for profile in sorted(PROFILES):
        for seed in range(PROGEN_SEEDS):
            programs[f"{profile}/{seed}"] = generate_program(
                seed, profile, PROGEN_PROCS).source
    return programs


PROGRAMS = _programs()


def observe(name):
    """The golden row for one program."""
    session = open_session(PROGRAMS[name])
    sas = session.analyze(AnalysisLevel.SAS).delays_by_index
    sync = session.analyze(AnalysisLevel.SYNC).delays_by_index
    text = json.dumps(sorted(sync))
    return {
        "sas": len(sas),
        "sync": len(sync),
        "sync_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_table_covers_exactly_the_programs(golden):
    assert sorted(golden) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_delay_set_matches_golden(name, golden):
    assert observe(name) == golden[name]


if __name__ == "__main__":
    table = {name: observe(name) for name in sorted(PROGRAMS)}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} programs to {GOLDEN_PATH}")
