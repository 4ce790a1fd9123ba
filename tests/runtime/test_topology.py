"""Barrier-topology tests: tree math, timing signatures, snapshot identity."""

import pytest

from repro.runtime import CM5, run_module
from repro.runtime.machine import (
    BARRIER_TOPOLOGIES,
    validate_barrier_topology,
    validate_tree_fanin,
)
from repro.runtime.network import FaultPlan
from repro.runtime.topology import (
    CentralBarrier,
    SenseBarrier,
    TreeBarrier,
    build_topology,
)
from tests.helpers import inlined
from tests.runtime.reference_engine import assert_parity


def run(source, procs=8, seed=0, machine=CM5, **kwargs):
    return run_module(inlined(source), procs, machine, seed=seed, **kwargs)


#: Neighbor exchange over several barrier rounds: every processor both
#: produces and consumes remote data, so a mistimed release corrupts
#: the snapshot rather than just the cycle count.
RELAY = (
    "shared int Ring[8];\n"
    "shared int Sum[8];\n"
    "void main() {\n"
    "  Ring[MYPROC] = MYPROC + 1;\n"
    "  int round = 0;\n"
    "  while (round < 3) {\n"
    "    barrier();\n"
    "    int left = (MYPROC + PROCS - 1) % PROCS;\n"
    "    int seen = Ring[left];\n"
    "    barrier();\n"
    "    Ring[MYPROC] = seen;\n"
    "    Sum[MYPROC] = Sum[MYPROC] + seen;\n"
    "    round = round + 1;\n"
    "  }\n"
    "}\n"
)


class TestTreeMath:
    def _tree(self, procs, fanin):
        machine = CM5.with_barrier_topology("tree", fanin)
        result = run(RELAY, procs=procs, machine=machine)
        assert result.cycles > 0
        # Rebuild the structure the run used to inspect its shape.
        from repro.runtime.simulator import Simulator

        sim = Simulator(inlined(RELAY), procs, machine)
        return build_topology(machine, sim)

    def test_parent_child_inverse(self):
        tree = self._tree(8, 2)
        assert isinstance(tree, TreeBarrier)
        for node in range(1, 8):
            assert tree.parent[node] == (node - 1) // 2
            assert node in tree.children[tree.parent[node]]

    def test_needed_counts_cover_all_procs(self):
        # Every processor is counted exactly once: by itself at its
        # own node.  Summing (needed - children) over nodes must give
        # the machine size.
        tree = self._tree(8, 4)
        assert sum(
            tree.needed[n] - len(tree.children[n]) for n in range(8)
        ) == 8

    def test_non_power_of_two_fanin_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            validate_tree_fanin(3)
        with pytest.raises(ValueError, match="power of two"):
            validate_tree_fanin(1)
        assert validate_tree_fanin(8) == 8

    def test_unknown_topology_rejected(self):
        with pytest.raises(KeyError, match="unknown barrier topology"):
            validate_barrier_topology("mesh")

    def test_builder_dispatch(self):
        from repro.runtime.simulator import Simulator

        module = inlined(RELAY)
        for name, cls in [
            ("central", CentralBarrier),
            ("sense", SenseBarrier),
            ("tree", TreeBarrier),
        ]:
            machine = CM5.with_barrier_topology(name)
            sim = Simulator(module, 8, machine)
            assert isinstance(build_topology(machine, sim), cls)


class TestSnapshotIdentity:
    """Topologies may change timing, never results."""

    def _snapshots(self, base_machine=CM5, **kwargs):
        results = {}
        for topology in BARRIER_TOPOLOGIES:
            machine = base_machine.with_barrier_topology(topology)
            results[topology] = run(RELAY, machine=machine, **kwargs)
        return results

    def test_all_topologies_agree(self):
        results = self._snapshots()
        base = results["central"].snapshot()
        assert base["Sum"] == [sum(
            ((p - r) % 8) + 1 for r in range(1, 4)
        ) for p in range(8)]
        for topology, result in results.items():
            assert result.snapshot() == base, topology

    def test_agreement_survives_jitter(self):
        results = self._snapshots(base_machine=CM5.with_jitter(9), seed=3)
        base = results["central"].snapshot()
        for result in results.values():
            assert result.snapshot() == base

    def test_agreement_under_tso(self):
        tso = CM5.with_memory_model("tso")
        base = None
        for topology in BARRIER_TOPOLOGIES:
            machine = tso.with_barrier_topology(topology)
            snap = run(RELAY, machine=machine).snapshot()
            base = base or snap
            assert snap == base

    def test_agreement_over_faulty_network(self):
        plan = FaultPlan(drop=0.2, duplicate=0.1, seed=11)
        results = self._snapshots(fault_plan=plan)
        base = results["central"].snapshot()
        for result in results.values():
            assert result.snapshot() == base

    def test_tree_fanin_choice_is_timing_only(self):
        snaps = []
        for fanin in (2, 4, 8):
            machine = CM5.with_barrier_topology("tree", fanin)
            snaps.append(run(RELAY, machine=machine).snapshot())
        assert snaps[0] == snaps[1] == snaps[2]


class TestEngineParity:
    """Every topology is cycle-identical under the test-side seed loop
    (``reference_engine.py``) and the production engine."""

    @pytest.mark.parametrize("topology", BARRIER_TOPOLOGIES)
    def test_cycles_and_snapshot_match(self, topology):
        machine = CM5.with_barrier_topology(topology)
        assert assert_parity(inlined(RELAY), 8, machine)["cycles"] > 0


class TestTimingSignatures:
    def test_sense_releases_faster_than_central(self):
        # The sense-reversing release is a flat barrier_base flip while
        # central serializes barrier_per_proc work per processor, so on
        # a barrier-bound program sense must finish strictly earlier.
        central = run(RELAY, machine=CM5.with_barrier_topology("central"))
        sense = run(RELAY, machine=CM5.with_barrier_topology("sense"))
        assert sense.cycles < central.cycles

    def test_central_matches_seed_formula(self):
        # central (the default) is the seed barrier bit-for-bit: under
        # the seed event loop it must not move a single cycle.
        assert_parity(inlined(RELAY), 8, CM5)
