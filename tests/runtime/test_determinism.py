"""Determinism audit: same seed, same run — at scale (ROADMAP item 4).

The batched engine replaces the seed's flat heapq with a calendar
queue and per-link rings; the refactor is only sound if dispatch order
stays a pure function of (program, machine, seed).  These tests run
the same configuration twice and demand bit-identical snapshots *and*
statistics, including at 256 processors and under fault injection,
where any hidden iteration-order or RNG-sharing bug would surface.
"""

import pytest

from repro.apps import em3d, ocean
from repro.runtime import CM5, run_module
from repro.runtime.machine import BARRIER_TOPOLOGIES
from repro.runtime.network import FaultPlan
from tests.helpers import inlined


def fingerprint(result):
    """Everything observable about a run, snapshot and stats alike."""
    return (
        result.snapshot(),
        result.cycles,
        result.per_proc_cycles,
        result.per_proc_wait,
        result.instructions,
        result.retransmits,
        result.network.stats.drops,
        result.network.stats.duplicates_suppressed,
    )


def run_twice(source, procs, machine=CM5, seed=0, **kwargs):
    module = inlined(source)
    return (
        fingerprint(run_module(module, procs, machine, seed=seed, **kwargs)),
        fingerprint(run_module(module, procs, machine, seed=seed, **kwargs)),
    )


class TestAudit256:
    @pytest.mark.parametrize("topology", BARRIER_TOPOLOGIES)
    def test_em3d_256_procs_repeats_exactly(self, topology):
        first, second = run_twice(
            em3d.scaled_source(256, block=2, steps=2), 256,
            machine=CM5.with_barrier_topology(topology),
        )
        assert first == second

    def test_ocean_256_procs_repeats_exactly(self):
        first, second = run_twice(
            ocean.scaled_source(256, rows_per=2, steps=2), 256,
        )
        assert first == second

    def test_jittered_faulty_run_repeats_exactly(self):
        # Jitter + drop/duplicate exercise every RNG in the stack; the
        # pair (seed, plan seed) must fully determine the outcome.
        plan = FaultPlan(drop=0.15, duplicate=0.1, seed=7)
        first, second = run_twice(
            em3d.scaled_source(64, block=2, steps=2), 64,
            machine=CM5.with_jitter(5).with_barrier_topology("tree"),
            seed=13, fault_plan=plan,
        )
        assert first == second

    def test_different_seed_may_differ_but_snapshot_agrees(self):
        # Seeds steer timing randomness only — the memory result of a
        # deterministic program is seed-independent.
        source = ocean.scaled_source(64, rows_per=2, steps=2)
        module = inlined(source)
        machine = CM5.with_jitter(7)
        a = run_module(module, 64, machine, seed=1)
        b = run_module(module, 64, machine, seed=2)
        assert a.snapshot() == b.snapshot()
