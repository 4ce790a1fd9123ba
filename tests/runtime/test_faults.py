"""Fault injection and the reliability protocol.

Covers the :class:`FaultPlan` grammar, the lossy :meth:`Network.transmit`
path, the simulator's ack/retransmit protocol (snapshot equality under
loss, duplicate suppression, retransmit accounting, NetworkFault on cap
exhaustion), and the deadlock forensics report.
"""

from dataclasses import replace

import pytest

from repro import OptLevel, compile_source
from repro.codegen.splitphase import convert_to_split_phase
from repro.errors import DeadlockError, NetworkFault
from repro.ir.instructions import Instr, Opcode
from repro.runtime import CM5, Simulator, run_module
from repro.runtime.network import (
    RETRY_CAP,
    FaultPlan,
    Message,
    MsgKind,
    Network,
)
from tests.helpers import FIGURE_1, inlined, snapshots_equal

#: Deterministic neighbour exchange: owner-partitioned writes separated
#: by barriers, so the final snapshot is schedule-independent.
GATHER = """
shared double A[16];
shared double B[16];
void main() {
  int base = MYPROC * 4;
  for (int i = 0; i < 4; i = i + 1) { A[base + i] = 1.0 * (base + i); }
  barrier();
  for (int i = 0; i < 4; i = i + 1) {
    B[base + i] = A[(base + i + 4) % 16] * 2.0;
  }
  barrier();
}
"""


def run(source, procs=2, seed=0, machine=CM5, **kwargs):
    return run_module(inlined(source), procs, machine, seed=seed, **kwargs)


class TestFaultPlanParse:
    def test_full_grammar(self):
        plan = FaultPlan.parse(" drop=0.1, dup=0.05", seed=9)
        assert plan == FaultPlan(drop=0.1, duplicate=0.05, seed=9)

    def test_describe_reparses_to_same_plan(self):
        plan = FaultPlan.parse("drop=0.2,dup=0.1", seed=4)
        assert FaultPlan.parse(plan.describe(), seed=4) == plan

    def test_empty_items_skipped(self):
        assert FaultPlan.parse("drop=0.5,,") == FaultPlan(drop=0.5)

    @pytest.mark.parametrize("spec", [
        "drop=1.5",
        "dup=-0.1",
        "drop",
        "frobnicate=1",
        "drop.bogus_kind=0.1",
        # keys of modes the grammar no longer has: retry caps, latency
        # spikes, link partitions, stall windows, per-kind rates, and a
        # seed that only repeated --fault-seed
        "retry_cap=many",
        "spike=1:-100",
        "spike=0.5:-400",
        "retry_cap=-1",
        "partition=0-1@100+-50",
        "partition=0-1@-5+10",
        "stall=1@5+10",
        "drop.store_req=0.3",
        "dup.net_ack=0.2",
        "seed=9",
        # plans built directly get the same bounds at construction
        pytest.param(lambda: FaultPlan(drop=1.5), id="direct-drop"),
        pytest.param(lambda: FaultPlan(duplicate=-0.1), id="direct-dup"),
        pytest.param(lambda: FaultPlan(drop=float("nan")),
                     id="direct-drop-nan"),
    ])
    def test_bad_specs_rejected(self, spec):
        if callable(spec):
            with pytest.raises(ValueError):
                spec()
            return
        with pytest.raises(ValueError, match="^bad fault item"):
            FaultPlan.parse(spec)


def make_network(plan, wire=10, jitter=0):
    return Network(wire, jitter, seed=0, plan=plan)


def msg(kind=MsgKind.STORE_REQ, src=0, dst=1):
    return Message(kind, src=src, dst=dst)


class TestTransmit:
    def test_certain_drop_yields_no_arrivals(self):
        net = make_network(FaultPlan(drop=1.0))
        assert net.transmit(msg(), now=0) == []
        assert net.stats.drops == 1

    def test_certain_duplicate_yields_two_copies(self):
        net = make_network(FaultPlan(duplicate=1.0))
        arrivals = net.transmit(msg(), now=5)
        assert arrivals == [15, 15]
        assert net.stats.duplicates == 1

    def test_retransmission_counted(self):
        net = make_network(FaultPlan())
        net.transmit(msg(), now=0)
        net.transmit(msg(), now=50, retransmission=True)
        assert net.stats.retransmits == 1
        assert net.stats.total_messages == 2

    def test_fault_decisions_replay_with_same_seed(self):
        plan = FaultPlan(drop=0.5, duplicate=0.3, seed=11)
        runs = []
        for _ in range(2):
            net = make_network(plan)
            runs.append([
                len(net.transmit(msg(), now=t)) for t in range(0, 200, 10)
            ])
        assert runs[0] == runs[1]


LOSSY = FaultPlan.parse("drop=0.2,dup=0.1")


class TestReliabilityProtocol:
    @pytest.mark.parametrize("level", ["O0", "O1", "O3"])
    def test_lossy_snapshots_match_fault_free(self, level):
        program = compile_source(GATHER, OptLevel(level))
        for seed in range(5):
            clean = program.run(4, CM5, seed=seed)
            lossy = program.run(
                4, CM5, seed=seed, fault_plan=replace(LOSSY, seed=seed)
            )
            assert snapshots_equal(clean.snapshot(), lossy.snapshot()), (
                level, seed
            )
            stats = lossy.network.stats
            assert stats.drops + stats.duplicates > 0

    def test_figure1_handshake_survives_loss(self):
        program = compile_source(FIGURE_1, OptLevel.O3)
        for seed in range(8):
            result = program.run(
                2, CM5, seed=seed,
                fault_plan=FaultPlan(drop=0.3, duplicate=0.2, seed=seed),
            )
            assert result.snapshot() == {"Data": [1], "Flag": [1]}

    def test_duplicates_are_suppressed_not_reapplied(self):
        # Every transmission duplicated: the accumulating store below
        # would double-count without receiver-side dedup.
        source = """
        shared double Acc[4];
        void main() {
          Acc[MYPROC] = 1.0 * MYPROC + 1.0;
          barrier();
        }
        """
        result = run(
            source, procs=4,
            fault_plan=FaultPlan(duplicate=1.0, seed=1),
        )
        assert result.snapshot()["Acc"] == [1.0, 2.0, 3.0, 4.0]
        assert result.network.stats.duplicates_suppressed > 0

    def test_loss_counters_populated(self):
        program = compile_source(GATHER, OptLevel.O3)
        result = program.run(
            4, CM5, seed=0, fault_plan=FaultPlan(drop=0.4, seed=2)
        )
        stats = result.network.stats
        assert result.retransmits == stats.retransmits > 0
        assert stats.drops > 0

    def test_fault_free_plan_changes_nothing(self):
        program = compile_source(GATHER, OptLevel.O3)
        clean = program.run(4, CM5, seed=3)
        noop = program.run(4, CM5, seed=3, fault_plan=FaultPlan())
        assert snapshots_equal(clean.snapshot(), noop.snapshot())
        assert noop.retransmits == 0


class TestNetworkFault:
    def test_retry_cap_exhaustion_raises_not_hangs(self):
        plan = FaultPlan(drop=1.0, seed=0)
        with pytest.raises(NetworkFault) as info:
            run(FIGURE_1, procs=2, fault_plan=plan)
        fault = info.value
        assert fault.attempts == RETRY_CAP + 1  # initial send + retries
        assert fault.undeliverable is not None
        assert fault.link == (
            fault.undeliverable.src, fault.undeliverable.dst
        )
        assert f"retry cap {RETRY_CAP}" in str(fault)


def _one_way(function):
    """Split-phase, then each put a one-way store waited out by an
    explicit all_store_sync."""
    convert_to_split_phase(function)
    for block in function.blocks:
        for index, instr in enumerate(block.instrs):
            if instr.op is Opcode.PUT:
                instr.op = Opcode.STORE
                instr.counter = None
            elif instr.op is Opcode.SYNC_CTR:
                block.instrs[index] = Instr(Opcode.STORE_SYNC)


#: One program per blocking opcode: (source, IR edit, parked pid, the
#: one-line reason).  Indices go through registers, so the reason's
#: element is resolved again from the parked frame.
PARKED = {
    "read_shared": (
        "shared int X[2];\n"
        "void main() { if (MYPROC == 0) { int v = X[1 - MYPROC]; } }",
        None, 0, "a reply to read_shared X[1]",
    ),
    "write_shared": (
        "shared int X[2];\n"
        "void main() { if (MYPROC == 0) { X[1 - MYPROC] = 5; } }",
        None, 0, "a reply to write_shared X[1]",
    ),
    "post": (
        "shared flag_t F[2];\n"
        "void main() { if (MYPROC == 0) { post(F[1 - MYPROC]); } }",
        None, 0, "a reply to post F[1]",
    ),
    "unlock": (
        "shared lock_t L[2];\n"
        "void main() {\n"
        "  if (MYPROC == 0) { lock(L[1 - MYPROC]); unlock(L[1 - MYPROC]); }\n"
        "}",
        None, 0, "a reply to unlock L[1]",
    ),
    "sync_ctr": (
        "shared int X[2];\n"
        "void main() { if (MYPROC == 0) { int v = X[1 - MYPROC]; } }",
        convert_to_split_phase, 0, "sync_ctr #1 (1 completion(s) outstanding)",
    ),
    "all_store_sync": (
        "shared int X[2];\n"
        "void main() { if (MYPROC == 0) { X[1 - MYPROC] = 5; } }",
        _one_way, 0, "all_store_sync (1 one-way store(s) undrained)",
    ),
    "wait": (
        "shared flag_t F[2];\n"
        "void main() { if (MYPROC == 0) { wait(F[1 - MYPROC]); } }",
        None, 0, "wait F[1]",
    ),
    "lock": (
        "shared lock_t L[2];\nshared flag_t F[2];\n"
        "void main() {\n"
        "  lock(L[0]); if (MYPROC == 0) { wait(F[0]); } unlock(L[0]);\n"
        "}",
        None, 1, "lock L[0] held by P0",
    ),
    "barrier": (
        "void main() { barrier(); }",
        None, 0, "barrier generation 0 (0/2 arrived)",
    ),
}


class TestDeadlockForensics:
    @pytest.mark.parametrize("opcode", sorted(PARKED))
    def test_one_line_reason_of_each_blocking_opcode(self, opcode):
        source, edit, pid, reason = PARKED[opcode]
        module = inlined(source)
        if edit is not None:
            edit(module.main)
        sim = Simulator(module, 2, CM5)
        # Each processor runs until it parks or finishes; no message is
        # delivered, so the parked one is still waiting at its opcode.
        for proc in sim.procs:
            proc.advance(0)
        parked = sim.procs[pid]
        if opcode == "unlock":
            # Grant P0's remote lock by hand; it runs on to the unlock
            # and parks on that request's acknowledgement.
            assert sim.locks.acquire(("L", 1), 0)
            parked.wake(parked.clock)
            parked.advance(parked.clock)
        assert parked.blocked_on is not None
        assert parked.blocked_on.op.value == opcode.removeprefix("all_")
        assert sim._describe_block_reason(parked) == reason
        assert f"P{pid}: blocked at main:" in sim.deadlock_report()
        assert f" on {reason} (clock" in sim.deadlock_report()

    def test_report_names_blocked_procs_and_sync_state(self):
        source = """
        shared flag_t never;
        shared flag_t posted;
        void main() {
          if (MYPROC == 0) { post(posted); }
          wait(never);
        }
        """
        with pytest.raises(DeadlockError) as info:
            run(source, procs=2)
        error = info.value
        assert error.report is not None
        text = str(error)
        # one-line summary names the wait target...
        assert "wait never[0]" in text.splitlines()[0]
        # ...and the report covers processors, sync objects, network.
        assert "processors:" in error.report
        assert "P0" in error.report and "P1" in error.report
        assert "flags posted: posted[0]" in error.report
        assert "never[0] awaited by P0, P1" in error.report
        assert "barrier: generation 0" in error.report

    def test_report_shows_lock_holder(self):
        # Classic AB/BA: the flags force both processors to hold their
        # first lock before requesting the second, so the cycle is
        # guaranteed regardless of timing.
        source = """
        shared lock_t la;
        shared lock_t lb;
        shared flag_t f0;
        shared flag_t f1;
        void main() {
          if (MYPROC == 0) {
            lock(la); post(f0); wait(f1); lock(lb);
            unlock(lb); unlock(la);
          }
          if (MYPROC == 1) {
            lock(lb); post(f1); wait(f0); lock(la);
            unlock(la); unlock(lb);
          }
        }
        """
        with pytest.raises(DeadlockError) as info:
            run(source, procs=2)
        report = info.value.report
        assert "lock la[0] held by P0 (queue: P1)" in report
        assert "lock lb[0] held by P1 (queue: P0)" in report

    def test_report_shows_barrier_stragglers(self):
        source = """
        void main() {
          if (MYPROC != 0) { barrier(); }
        }
        """
        with pytest.raises(DeadlockError) as info:
            run(source, procs=3)
        report = info.value.report
        assert "barrier generation 0 (2/3 arrived)" in str(info.value)
        assert "arrived [1, 2]" in report

    def test_report_lists_unacked_envelopes_under_faults(self):
        plan = FaultPlan(drop=1.0, seed=0)
        source = """
        shared flag_t go;
        void main() {
          if (MYPROC == 0) { post(go); }
          if (MYPROC == 1) { wait(go); }
        }
        """
        # The undeliverable post exhausts its cap: NetworkFault carries
        # the forensics instead of a silent hang.
        with pytest.raises(NetworkFault):
            run(source, procs=2, fault_plan=plan)
