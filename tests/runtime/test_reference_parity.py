"""Differential parity: the production engine vs. the seed engine.

``src/`` ships one interpreter and one event core; the seed
per-instruction loop and flat event heap live in
``tests/runtime/reference_engine.py``.  Every case here runs both on
identical inputs and compares ``cycles``, ``per_proc_cycles``,
``per_proc_wait``, ``instructions``, ``total_messages``, retransmits,
weak-memory counters, the final snapshot, the trace (when recorded)
and, for failing programs, the fault class and text.

The reference engine owns the nine local opcodes and the event core and
runs the production ``Processor.OPS`` handlers for every shared,
split-phase and sync opcode, so for those this suite pins fault texts
only; their behaviour is pinned by ``test_runtime_golden.py``.

The shared-access fusing cases (remote home mid-run, bounds faults on
the fused path, distributions) stay in ``test_decode_shared.py`` and
the three barrier topologies in ``test_topology.py``; both drive the
same oracle.
"""

import re

import pytest

from repro import OptLevel, compile_source
from repro.apps import APPS, get_app
from repro.codegen.splitphase import convert_to_split_phase
from repro.errors import RuntimeFault
from repro.fuzz import progen
from repro.ir.instructions import Opcode, Temp
from repro.runtime import CM5, Simulator, decode, run_module
from repro.runtime.network import FaultPlan
from tests.helpers import FIGURE_1, FIGURE_5, frontend, inlined
from tests.integration.test_litmus import (
    BARRIER_PHASES,
    LOCK_COUNTER,
    NESTED_LOCKS,
    POST_WAIT_RING,
    TWO_PRODUCER_CHAIN,
)
from tests.runtime.reference_engine import assert_parity

JITTERY = CM5.with_jitter(350)

LITMUS = {
    "figure1": (FIGURE_1, 2),
    "figure5": (FIGURE_5, 2),
    "post_wait_ring": (POST_WAIT_RING, 4),
    "lock_counter": (LOCK_COUNTER, 4),
    "barrier_phases": (BARRIER_PHASES, 4),
    "nested_locks": (NESTED_LOCKS, 4),
    "two_producer_chain": (TWO_PRODUCER_CHAIN, 3),
}

KERNEL_LEVELS = (OptLevel.O0, OptLevel.O1, OptLevel.O3, OptLevel.O4)
#: 4-8 processors, mixed so block distributions divide both evenly
#: and unevenly across the suite.
KERNEL_PROCS = dict(zip(sorted(APPS), (4, 8, 6, 5, 8)))

PROGEN_SEEDS = range(56)
PROGEN_PROFILES = sorted(
    name for name, spec in progen.PROFILES.items() if spec.deterministic
)


def parity_of(program, procs, machine=CM5, **kwargs):
    return assert_parity(
        program.module, procs, machine,
        delay_fences=program.delay_fences, **kwargs
    )


class TestLitmus:
    @pytest.mark.parametrize("level", list(OptLevel), ids=lambda l: l.value)
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_every_litmus_program(self, name, level):
        source, procs = LITMUS[name]
        program = compile_source(source, level)
        for machine, seed in ((CM5, 0), (JITTERY, 3)):
            observed = parity_of(program, procs, machine, seed=seed)
            assert "fault" not in observed


class TestKernels:
    @pytest.mark.parametrize("level", KERNEL_LEVELS, ids=lambda l: l.value)
    @pytest.mark.parametrize("name", sorted(APPS))
    def test_section8_kernels(self, name, level):
        procs = KERNEL_PROCS[name]
        program = compile_source(get_app(name).source(procs), level)
        observed = parity_of(program, procs)
        assert observed["instructions"] > 0 and "fault" not in observed


class TestGeneratedPrograms:
    @pytest.mark.parametrize("seed", PROGEN_SEEDS)
    def test_progen_seed(self, seed):
        profile = PROGEN_PROFILES[seed % len(PROGEN_PROFILES)]
        generated = progen.generate_program(seed, profile, procs=4)
        level = KERNEL_LEVELS[seed % len(KERNEL_LEVELS)]
        program = compile_source(generated.source, level)
        assert "fault" not in parity_of(program, 4, JITTERY, seed=seed)


class TestMachineVariants:
    """One run per axis the two event cores handle differently."""

    def test_lossy_network(self):
        plan = FaultPlan.parse("drop=0.2,dup=0.1", seed=5)
        program = compile_source(get_app("em3d").source(4), OptLevel.O3)
        observed = parity_of(program, 4, seed=2, fault_plan=plan)
        assert observed["retransmits"] > 0

    @pytest.mark.parametrize("model", ("tso", "pso"))
    def test_weak_memory(self, model):
        machine = CM5.with_memory_model(model, 3)
        program = compile_source(POST_WAIT_RING, OptLevel.O1)
        assert program.delay_fences
        observed = parity_of(program, 4, machine)
        assert observed["weak_stats"]["fences"] > 0
        stripped = program.without_delay_fences()
        assert "fault" not in parity_of(stripped, 4, machine)

    def test_traced_run(self):
        program = compile_source(get_app("ocean").source(4), OptLevel.O3)
        observed = parity_of(program, 4, JITTERY, seed=1, trace=True)
        events = [event for proc in observed["trace"] for event in proc]
        assert {event.op for event in events} == {"r", "w"}

    def test_calls_without_inlining(self):
        module = frontend(
            "shared int X;\n"
            "int add1(int v) { return v + 1; }\n"
            "int add2(int v) { return add1(add1(v)); }\n"
            "void main() { if (MYPROC == 0) { X = add2(40); } }"
        )
        assert assert_parity(module, 2, CM5)["snapshot"]["X"] == [42]


def _unsynced_get():
    """Hand-built IR that reads a get destination before syncing."""
    module = inlined(
        "shared int X; shared int Y;\n"
        "void main() { if (MYPROC == 1) { int y = X; Y = y; } }"
    )
    convert_to_split_phase(module.main)
    for block in module.main.blocks:
        block.instrs = [
            i for i in block.instrs if i.op is not Opcode.SYNC_CTR
        ]
    return module


def _undefined_temp():
    module = inlined(
        "shared int X; void main() { int y = MYPROC; X = y + 1; }"
    )
    for _block, _index, ins in module.main.instructions():
        if ins.op is Opcode.BINOP:
            ins.lhs = Temp("ghost")
            return module
    raise AssertionError("no binop to corrupt")


def _remote(source, level, opcode, mutate=None, drop=None):
    """``source`` compiled at ``level``; ``opcode`` must be how its
    access to a P1-homed element came out.  ``mutate`` may corrupt
    those instructions; every ``drop`` instruction is deleted."""
    module = compile_source(source, level).module
    hits = [
        ins for _block, _index, ins in module.main.instructions()
        if ins.op is opcode
    ]
    assert hits, f"no {opcode.value} at {level.value}"
    for ins in hits:
        if mutate is not None:
            mutate(ins)
    for block in module.main.blocks:
        block.instrs = [i for i in block.instrs if i.op is not drop]
    return module


#: P0 touches elements homed on P1, so each fault below concerns a
#: *remote* access: the element is resolved where the access issues,
#: the sync-object rules are enforced at the home.
REMOTE_READ = (
    "shared int A[2][4]; shared int Y;\n"
    "void main() { if (MYPROC == 0) {"
    " int j = MYPROC + 4; int y = A[1][j]; Y = y; } }"
)
REMOTE_WRITE = (
    "shared int A[2][4];\n"
    "void main() { if (MYPROC == 0) {"
    " int j = MYPROC + 4; A[1][j] = 5; } barrier(); }"
)
REMOTE_POSTS = (
    "shared flag_t F[2];\n"
    "void main() { if (MYPROC == 0) { post(F[1]); post(F[1]); } }"
)
REMOTE_UNLOCK = (
    "shared lock_t L[2];\n"
    "void main() { if (MYPROC == 0) { lock(L[1]); unlock(L[1]); } }"
)
TRAILING_OOB = r"RuntimeFault: A: index 4 out of range \[0, 4\)"
ARITY = "RuntimeFault: A: expected 2 indices, got 1"


def _truncate(ins):
    if ins.var == "A":
        ins.indices = ins.indices[:1]


def _remote_faults():
    O0, O1, O3 = OptLevel.O0, OptLevel.O1, OptLevel.O3
    cases = {}
    for label, source, level, opcode in (
        ("read_shared", REMOTE_READ, O0, Opcode.READ_SHARED),
        ("get", REMOTE_READ, O3, Opcode.GET),
        ("write_shared", REMOTE_WRITE, O0, Opcode.WRITE_SHARED),
        ("put", REMOTE_WRITE, O1, Opcode.PUT),
        ("store", REMOTE_WRITE, O3, Opcode.STORE),
    ):
        cases[f"remote_{label}_trailing_oob"] = (
            lambda s=source, l=level, o=opcode: _remote(s, l, o),
            TRAILING_OOB,
        )
        cases[f"remote_{label}_arity"] = (
            lambda s=source, l=level, o=opcode: _remote(s, l, o, _truncate),
            ARITY,
        )
    for level in (O0, O3):
        cases[f"remote_double_post_{level.value}"] = (
            lambda l=level: _remote(REMOTE_POSTS, l, Opcode.POST),
            r"RuntimeFault: double post on flag F\[1\] \(illegal",
        )
        cases[f"remote_unlock_by_non_holder_{level.value}"] = (
            lambda l=level: _remote(
                REMOTE_UNLOCK, l, Opcode.UNLOCK, drop=Opcode.LOCK),
            r"RuntimeFault: processor 0 unlocking L\[1\] held by None",
        )
    return cases


FAULTS = {
    **_remote_faults(),
    "int_div_zero": (
        lambda: inlined(
            "shared int X; void main() { X = 7 / (MYPROC - MYPROC); }"
        ),
        "integer division by zero",
    ),
    "float_div_zero": (
        lambda: inlined("shared double X; void main() { X = 1.0 / 0.0; }"),
        "float division by zero",
    ),
    "mod_zero": (
        lambda: inlined("shared int X; void main() { X = 7 % 0; }"),
        "modulo by zero",
    ),
    "local_array_oob": (
        lambda: inlined(
            "void main() { double b[4]; int i = MYPROC + 4; b[i] = 1.0; }"
        ),
        r"local array b\S* index \d out of range \[0, 4\)",
    ),
    "local_array_static_oob": (
        lambda: inlined("void main() { double b[4]; b[9] = 1.0; }"),
        r"local array b\S* index 9 out of range \[0, 4\)",
    ),
    "pending_read": (_unsynced_get, "before its get completed"),
    "undefined_temp": (_undefined_temp, "use of undefined temp %ghost"),
    "deadlock": (
        lambda: inlined("void main() { if (MYPROC == 0) { barrier(); } }"),
        "DeadlockError: simulation stalled",
    ),
}


class TestFaultTexts:
    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_text_matches(self, name):
        build, pattern = FAULTS[name]
        observed = assert_parity(build(), 2, CM5)
        assert re.search(pattern, observed["fault"]), observed

    def test_runaway_loop_exhausts_the_cycle_budget(self):
        module = inlined("void main() { int i = 0; while (i < 1) { } }")
        observed = assert_parity(module, 1, CM5, max_cycles=10_000)
        assert "exceeded cycle budget 10000" in observed["fault"]

    def test_retry_cap_exhaustion(self):
        module = inlined(
            "shared int X; void main() { if (MYPROC == 1) { X = 1; } }"
        )
        plan = FaultPlan.parse("drop=1.0")
        observed = assert_parity(module, 2, CM5, fault_plan=plan)
        assert observed["fault"].startswith("NetworkFault:")


class TestOracleHasTeeth:
    def test_wrong_decoded_cost_is_caught(self, monkeypatch):
        """One extra cycle on every decoded MOVE must break parity."""
        real_add = decode._RunCompiler.add

        def miscosted_add(self, ins):
            real_add(self, ins)
            if ins.op is Opcode.MOVE:
                self.cost += 1

        program = compile_source(get_app("em3d").source(4), OptLevel.O3)
        parity_of(program, 4)
        monkeypatch.setattr(decode._RunCompiler, "add", miscosted_add)
        with pytest.raises(AssertionError):
            parity_of(program, 4)


class TestDelayFences:
    def test_sc_decode_ignores_the_fence_set(self):
        """Under SC the fences are inert, so delay-target shared
        accesses fuse exactly as they do with no fence set at all."""
        program = compile_source(get_app("ocean").source(4), OptLevel.O0)
        assert program.delay_fences

        def fused_interiors(fences):
            sim = Simulator(program.module, 4, CM5, delay_fences=fences)
            return {
                label: [step is decode._unreachable for step in steps]
                for label, steps in sim.decoded(program.module.main).items()
            }

        assert fused_interiors(program.delay_fences) == fused_interiors(
            frozenset()
        )

    def test_fence_on_local_opcode_is_rejected(self):
        """Delay fences name shared/sync accesses; the decoder refuses
        one on a local opcode under a weak model (and ignores the
        whole set under SC, where it is inert)."""
        module = inlined("shared int X; void main() { int y = 1; X = y; }")
        local_uid = next(
            ins.uid for _b, _i, ins in module.main.instructions()
            if ins.op in decode.FAST_OPS
        )
        fences = frozenset({local_uid})
        run_module(module, 2, CM5, delay_fences=fences)
        with pytest.raises(RuntimeFault, match="delay fence on local"):
            run_module(module, 2, CM5.with_memory_model("tso", 0),
                       delay_fences=fences)
