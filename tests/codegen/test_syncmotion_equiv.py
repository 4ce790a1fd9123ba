"""Fast bitset sync placement == the reference placer.

``place_syncs`` answers every counter's placement question from
precomputed observer bitmasks; ``place_syncs_reference``
(``syncmotion_reference.py``, beside this file) is the original
per-(counter x instruction) loop, kept as the executable specification.
This suite pins them together two ways:

* a property sweep over generated programs from every fuzz profile
  (>= 200 programs total), comparing the mutated IR text and the
  placement count, and
* golden end-to-end compiles of the litmus suite and every application
  kernel with the pipeline's placer monkeypatched to the reference —
  modules and emitted Split-C must be byte-identical.
"""

import copy

import pytest

from repro import OptLevel, compile_source
from repro.analysis.delays import AnalysisLevel, analyze_function
from repro.apps import ALL_APPS
from repro.codegen.constraints import MotionConstraints
from repro.codegen.splitphase import convert_to_split_phase
from repro.codegen.syncmotion import place_syncs
from repro.compiler import frontend
from repro.fuzz.progen import PROFILES, generate_program
from repro.ir.inline import inline_all
from tests.codegen.syncmotion_reference import place_syncs_reference
from tests.pipeline.test_session_equivalence import LITMUS

#: seeds per profile; 6 profiles x 35 = 210 generated programs.
SEEDS_PER_PROFILE = 35


def _assert_placements_match(source: str, label: str) -> int:
    """Runs both placers on identical copies; returns the placement count."""
    module = inline_all(frontend(source))
    analysis = analyze_function(module.main, AnalysisLevel.SYNC)
    constraints = MotionConstraints(analysis)
    work = copy.deepcopy(module)
    info = convert_to_split_phase(work.main)
    # Deepcopy the (module, info) pair jointly so the reference copy's
    # SplitPhaseInfo points at the reference copy's instructions.
    work_ref, info_ref = copy.deepcopy((work, info))
    fast = place_syncs(work.main, constraints, info)
    ref = place_syncs_reference(work_ref.main, constraints, info_ref)
    assert fast == ref, f"{label}: placement count {fast} != {ref}"
    assert str(work) == str(work_ref), f"{label}: placed IR differs"
    return fast


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_property_fast_placer_matches_reference(profile):
    total_placements = 0
    for seed in range(SEEDS_PER_PROFILE):
        program = generate_program(seed, profile)
        total_placements += _assert_placements_match(
            program.source, f"{profile}/seed={seed}"
        )
    # The sweep must actually exercise placement, not just trivially
    # agree on programs with nothing to place.
    assert total_placements > 0, profile


GOLDEN_LEVELS = (OptLevel.O0, OptLevel.O1, OptLevel.O3, OptLevel.O4)


def _assert_golden_equivalent(source: str, level, monkeypatch, label):
    fast = compile_source(source, level)
    monkeypatch.setattr(
        "repro.pipeline.passes.place_syncs", place_syncs_reference
    )
    ref = compile_source(source, level)
    monkeypatch.undo()
    assert str(fast.module) == str(ref.module), label
    assert fast.splitc() == ref.splitc(), label
    assert sorted(fast.analysis.delays_by_index) == sorted(
        ref.analysis.delays_by_index
    ), label


@pytest.mark.parametrize("level", GOLDEN_LEVELS, ids=lambda lv: lv.value)
@pytest.mark.parametrize("name", sorted(LITMUS))
def test_golden_litmus_fast_vs_reference(name, level, monkeypatch):
    _assert_golden_equivalent(
        LITMUS[name], level, monkeypatch, f"{name}@{level.value}"
    )


@pytest.mark.parametrize("level", GOLDEN_LEVELS, ids=lambda lv: lv.value)
@pytest.mark.parametrize("app", ALL_APPS, ids=lambda app: app.name)
def test_golden_apps_fast_vs_reference(app, level, monkeypatch):
    _assert_golden_equivalent(
        app.source(app.supported_procs[0]),
        level,
        monkeypatch,
        f"{app.name}@{level.value}",
    )
