"""The litmus suite and the bundled apps replayed over a lossy network.

The contract under test: for deterministic-by-construction programs,
every (drop, duplicate) schedule the fault grammar can express yields
the *same final snapshot* as the perfect network, at every optimization
level — the reliability protocol is invisible except in timing.  Lock-based programs (``health``, LOCK_COUNTER) settle
acquisition order by arrival time, so they are checked against their
invariants instead of snapshot equality.
"""

import pytest

from repro import OptLevel, compile_source
from repro.apps import get_app
from repro.runtime import CM5
from repro.runtime.network import FaultPlan
from tests.helpers import FIGURE_1, snapshots_equal
from tests.integration.test_litmus import (
    BARRIER_PHASES,
    LOCK_COUNTER,
    POST_WAIT_RING,
    TWO_PRODUCER_CHAIN,
)

LEVELS = (OptLevel.O0, OptLevel.O1, OptLevel.O3)

#: Escalating severities, mirroring the campaign's FAULT_RATES.
FAULT_SPECS = (
    "drop=0.05",
    "drop=0.1,dup=0.05",
    "drop=0.2,dup=0.1",
)

LITMUS = [
    ("figure1", FIGURE_1, 2),
    ("post_wait_ring", POST_WAIT_RING, 4),
    ("barrier_phases", BARRIER_PHASES, 4),
    ("two_producer_chain", TWO_PRODUCER_CHAIN, 3),
]


class TestLitmusUnderFaults:
    @pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
    @pytest.mark.parametrize(
        "name,source,procs", LITMUS, ids=[entry[0] for entry in LITMUS]
    )
    def test_lossy_snapshot_matches_fault_free(
        self, name, source, procs, level
    ):
        program = compile_source(source, level)
        reference = program.run(procs, CM5, seed=0).snapshot()
        for spec in FAULT_SPECS:
            for fault_seed in range(4):
                plan = FaultPlan.parse(spec, seed=fault_seed)
                result = program.run(
                    procs, CM5, seed=0, fault_plan=plan
                )
                assert snapshots_equal(reference, result.snapshot()), (
                    name, level.value, spec, fault_seed
                )

    @pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
    def test_lock_litmus_invariants_hold_under_loss(self, level):
        program = compile_source(LOCK_COUNTER, level)
        plan = FaultPlan.parse("drop=0.2,dup=0.1", seed=3)
        snapshot = program.run(
            4, CM5, seed=0, fault_plan=plan
        ).snapshot()
        assert snapshot["C"] == [16]
        written = snapshot["Log"][:16]
        counts = {p: written.count(float(p)) for p in range(4)}
        assert counts == {0: 4, 1: 4, 2: 4, 3: 4}


class TestAppsUnderFaults:
    @pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
    @pytest.mark.parametrize(
        "name", ["ocean", "em3d", "epithelial", "cholesky"]
    )
    def test_deterministic_apps_agree_with_fault_free(self, name, level):
        app = get_app(name)
        program = compile_source(app.source(4), level)
        reference = program.run(4, CM5, seed=0).snapshot()
        for fault_seed in range(3):
            plan = FaultPlan.parse("drop=0.2,dup=0.1", seed=fault_seed)
            result = program.run(4, CM5, seed=0, fault_plan=plan)
            assert snapshots_equal(reference, result.snapshot()), (
                name, level.value, fault_seed
            )
            assert result.retransmits > 0

    @pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
    def test_lock_based_app_passes_its_reference_check(self, level):
        app = get_app("health")
        program = compile_source(app.source(4), level)
        for fault_seed in range(3):
            plan = FaultPlan.parse("drop=0.2,dup=0.1", seed=fault_seed)
            result = program.run(4, CM5, seed=0, fault_plan=plan)
            app.check(result.snapshot(), 4)
