"""Barrier-topology tests: tree math, timing signatures, snapshot identity."""

import pytest

from repro.errors import DeadlockError, RuntimeFault
from repro.runtime import CM5, Simulator, run_module
from repro.runtime.machine import BARRIER_TOPOLOGIES, validate_barrier_topology
from repro.runtime.network import FaultPlan, Message, MsgKind
from repro.runtime.topology import (
    FANIN,
    CentralBarrier,
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
    def _tree(self, procs):
        machine = CM5.with_barrier_topology("tree")
        result = run(RELAY, procs=procs, machine=machine)
        assert result.cycles > 0
        # Rebuild the structure the run used to inspect its shape.
        from repro.runtime.simulator import Simulator

        sim = Simulator(inlined(RELAY), procs, machine)
        return build_topology(machine, sim)

    def test_parent_child_inverse(self):
        tree = self._tree(8)
        assert isinstance(tree, TreeBarrier)
        for node in range(1, 8):
            assert tree.parent[node] == (node - 1) // FANIN
            assert node in tree.children[tree.parent[node]]

    def test_needed_counts_cover_all_procs(self):
        # Every processor is counted exactly once: by itself at its
        # own node.  Summing (needed - children) over nodes must give
        # the machine size.
        tree = self._tree(8)
        assert sum(
            tree.needed[n] - len(tree.children[n]) for n in range(8)
        ) == 8

    def test_unknown_topology_rejected(self):
        for name in ("mesh", "sense"):
            with pytest.raises(KeyError, match="unknown barrier topology"):
                validate_barrier_topology(name)

    def test_builder_dispatch(self):
        from repro.runtime.simulator import Simulator

        module = inlined(RELAY)
        for name, cls in [
            ("central", CentralBarrier),
            ("tree", TreeBarrier),
        ]:
            machine = CM5.with_barrier_topology(name)
            sim = Simulator(module, 8, machine)
            assert isinstance(build_topology(machine, sim), cls)


class TestCentralBarrier:
    @staticmethod
    def _barrier(procs):
        sim = Simulator(inlined("void main() { }"), procs, CM5)
        return sim, sim.topology

    @staticmethod
    def _arrive(barrier, pid, now):
        barrier.on_arrive(now, Message(MsgKind.BARRIER_ARRIVE, src=pid, dst=0))

    def test_rendezvous_completes(self):
        sim, barrier = self._barrier(3)
        sim.outstanding_stores = 1  # an undrained store holds the release
        self._arrive(barrier, 0, 5)
        self._arrive(barrier, 2, 9)
        assert not barrier.pending
        self._arrive(barrier, 1, 7)
        assert barrier.pending
        assert barrier.last_arrival == 9

    def test_double_arrival_raises(self):
        _, barrier = self._barrier(2)
        self._arrive(barrier, 0, 0)
        with pytest.raises(RuntimeFault, match="arrived twice"):
            self._arrive(barrier, 0, 1)

    def test_release_resets_generation(self):
        _, barrier = self._barrier(2)
        self._arrive(barrier, 0, 0)
        self._arrive(barrier, 1, 0)  # no stores pending: released at once
        assert barrier.generation == 1
        assert barrier.arrived == set()
        assert not barrier.pending and barrier.last_arrival == 0
        self._arrive(barrier, 0, 3)  # the new generation accepts again
        assert not barrier.pending


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


class TestEngineParity:
    """Every topology is cycle-identical under the test-side seed loop
    (``reference_engine.py``) and the production engine."""

    @pytest.mark.parametrize("topology", BARRIER_TOPOLOGIES)
    def test_cycles_and_snapshot_match(self, topology):
        machine = CM5.with_barrier_topology(topology)
        assert assert_parity(inlined(RELAY), 8, machine)["cycles"] > 0


class TestTimingSignatures:
    def test_central_matches_seed_formula(self):
        # central (the default) is the seed barrier bit-for-bit: under
        # the seed event loop it must not move a single cycle.
        assert_parity(inlined(RELAY), 8, CM5)


class TestTreeForensics:
    def test_deadlock_report_names_the_partial_combine(self):
        # Only processor 0 reaches the barrier.  Under the fan-in-4
        # tree on 4 processors, node 0 needs itself and its three
        # children, so it combines 1 of 4 arrivals and no subtree
        # completes.
        machine = CM5.with_barrier_topology("tree")
        with pytest.raises(DeadlockError) as caught:
            run("void main() { if (MYPROC == 0) { barrier(); } }",
                procs=4, machine=machine)
        text = str(caught.value)
        assert "tree fan-in 4, 0/4 subtrees combined" in text
        assert "barrier partial combines: node 0: 1/4" in text
