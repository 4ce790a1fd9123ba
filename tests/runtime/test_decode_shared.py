"""Differential tests for the decoded interpreter's shared-access fusing.

The threaded-code decoder compiles *local-home* shared accesses —
O0's ``read_shared``/``write_shared`` and the split-phase
``get``/``put``/``store`` of O1 and up — and fall-through ``sync_ctr``
straight into the fused run (direct storage-list indexing) and bails
out to the generic handler for remote homes and non-zero counters.
Every case here runs the production engine and the test-side seed
interpreter (``reference_engine.py``, which reaches all of these
through ``Processor._access``/``_sync_ctr``) and demands identical
snapshots, cycles, per-processor stats and fault messages — the
specialization must be invisible except in wall time.  The decode-cost
tests at the end pin the other half: every instruction is compiled
once, and no step text is compiled twice.
"""

import dataclasses
import re
import time

import pytest

from repro import OptLevel, compile_source
from repro.apps import em3d, ocean
from repro.errors import RuntimeFault
from repro.fuzz import progen
from repro.ir.instructions import Opcode
from repro.perf import profiled
from repro.runtime import CM5, Simulator, decode, run_module
from tests.helpers import inlined
from tests.runtime.reference_engine import assert_parity

CASES = {
    # Remote access in the middle of a fused run: the decoder must
    # settle the prefix cost, bail to the generic path, and resume at
    # the instruction after the blocking read.
    "remote_mid_run": (
        "shared int A[8];\n"
        "void main() {\n"
        "  int i; int s;\n"
        "  s = 0;\n"
        "  for (i = 0; i < 8; i = i + 1) { A[i] = i * 3; }\n"
        "  barrier();\n"
        "  for (i = 0; i < 8; i = i + 1) { s = s + A[7 - i]; }\n"
        "  A[MYPROC] = s;\n"
        "}\n"
    ),
    # Leading-dimension bounds fault: checked before the owner test,
    # so both interpreters fault with the owner-side message.
    "oob_leading": (
        "shared int A[4];\n"
        "void main() { int x; x = A[MYPROC * 9]; }\n"
    ),
    # Trailing-dimension fault on a local-home element: the fused
    # fast path itself must raise the seed's message.
    "oob_trailing": (
        "shared int B[4][3];\n"
        "void main() { int x; x = B[MYPROC][MYPROC * 2]; }\n"
    ),
    # Shared scalars live on processor 0: remote for everyone else.
    "scalar_home": (
        "shared int total;\n"
        "void main() {\n"
        "  if (MYPROC == 0) { total = 5; }\n"
        "  barrier();\n"
        "  total = total + 1;\n"
        "}\n"
    ),
    # Cyclic distribution uses modular ownership, not block division.
    "cyclic_distribution": (
        "shared int C[16] dist(cyclic);\n"
        "void main() {\n"
        "  int i;\n"
        "  for (i = 0; i < 16; i = i + 1) {\n"
        "    if (i % PROCS == MYPROC) { C[i] = i * i; }\n"
        "  }\n"
        "  barrier();\n"
        "  C[MYPROC] = C[MYPROC] + C[(MYPROC + 1) % 16];\n"
        "}\n"
    ),
    # int-kind stores coerce the value exactly like the generic path.
    "int_coercion": (
        "shared int D[4];\n"
        "void main() { D[MYPROC] = 7 / 2 + MYPROC; }\n"
    ),
    "double_elements": (
        "shared double E[6];\n"
        "void main() {\n"
        "  double x;\n"
        "  E[MYPROC] = 1.5 * MYPROC;\n"
        "  barrier();\n"
        "  x = E[(MYPROC + 3) % 6];\n"
        "  E[MYPROC] = x + 0.25;\n"
        "}\n"
    ),
}


#: Cases that must end in a fault (with the same text on both sides).
FAULTING = {"oob_leading", "oob_trailing"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_engines_agree(name):
    observed = assert_parity(inlined(CASES[name]), 4, CM5)
    assert ("fault" in observed) == (name in FAULTING)


def test_oob_message_is_seed_text():
    with pytest.raises(RuntimeFault, match=r"index 9 out of range \[0, 4\)"):
        run_module(inlined(CASES["oob_leading"]), 4, CM5)


def test_tracing_disables_fusing_but_not_results():
    # With trace=True the decoder skips shared-op fusing (every access
    # must hit the trace recorder); results still agree.
    module = inlined(CASES["cyclic_distribution"])
    plain = run_module(module, 4, CM5)
    traced = run_module(module, 4, CM5, trace=True)
    assert traced.snapshot() == plain.snapshot()
    assert traced.trace is not None
    assert traced.trace.total_length() > 0


# -- compiled code: get / put / store / sync_ctr ---------------------------

O1, O3 = OptLevel.O1, OptLevel.O3

#: name -> (source, level, opcodes the compiled program must contain,
#: fault pattern or None).  Four processors; ``A``-style arrays of 8
#: are blocked two elements per processor.
COMPILED = {
    # A remote get bails mid-block and returns into the next run; the
    # sync_ctr behind it blocks, then re-executes on wake (counted
    # twice by both engines).  The puts and stores are local-home.
    "remote_get_then_blocking_sync": (
        CASES["remote_mid_run"], O3, {Opcode.GET, Opcode.SYNC_CTR}, None,
    ),
    "remote_get_then_blocking_sync_o1": (
        CASES["remote_mid_run"], O1,
        {Opcode.GET, Opcode.PUT, Opcode.SYNC_CTR}, None,
    ),
    # A get fused with its store_local lands in the private array,
    # local-home for i == 0, 1 and remote beyond.
    "get_lands_in_local_array": (
        "shared double G[8];\n"
        "void main() {\n"
        "  double b[4]; int i;\n"
        "  G[MYPROC * 2] = 1.5 * MYPROC; G[MYPROC * 2 + 1] = 0.5;\n"
        "  barrier();\n"
        "  for (i = 0; i < 4; i = i + 1) {"
        " b[i] = G[(MYPROC * 2 + i) % 8]; }\n"
        "  barrier();\n"
        "  G[MYPROC * 2] = b[0] + b[1] + b[2] + b[3];\n"
        "}\n",
        O3, {Opcode.GET, Opcode.STORE}, None,
    ),
    "get_landing_oob": (
        "shared double G[8];\n"
        "void main() {\n"
        "  double b[4]; int i;\n"
        "  i = MYPROC + 3;\n"
        "  b[i] = G[MYPROC * 2];\n"
        "  barrier();\n"
        "  G[MYPROC * 2] = b[3];\n"
        "}\n",
        O3, {Opcode.GET},
        r"P1: fused get target b\S* index 4 out of range \[0, 4\)",
    ),
    "get_oob_leading": (
        CASES["oob_leading"], O1, {Opcode.GET},
        r"A: leading index 9 out of range \[0, 4\)",
    ),
    "get_oob_trailing": (
        CASES["oob_trailing"], O1, {Opcode.GET},
        r"B: index 4 out of range \[0, 3\)",
    ),
    "put_oob_leading": (
        "shared int A[4];\nvoid main() { A[MYPROC + 4] = 1; }\n",
        O1, {Opcode.PUT}, r"A: leading index 4 out of range \[0, 4\)",
    ),
    "put_oob_trailing": (
        "shared int B[4][3];\nvoid main() { B[MYPROC][MYPROC + 2] = 1; }\n",
        O1, {Opcode.PUT}, r"B: index 3 out of range \[0, 3\)",
    ),
    # A double written into an int array: coerced where it is applied.
    "put_int_coercion": (
        "shared int D[8];\n"
        "void main() {\n"
        "  double x; x = 2.75 + MYPROC;\n"
        "  D[MYPROC * 2] = x;\n"
        "  barrier();\n"
        "  D[MYPROC * 2 + 1] = D[MYPROC * 2] * 1.5;\n"
        "}\n",
        O1, {Opcode.PUT, Opcode.GET}, None,
    ),
    "cyclic_distribution": (
        CASES["cyclic_distribution"], O3, {Opcode.GET, Opcode.SYNC_CTR},
        None,
    ),
    "scalar_home": (CASES["scalar_home"], O3, {Opcode.GET}, None),
}
COMPILED["store_int_coercion"] = (
    COMPILED["put_int_coercion"][0], O3, {Opcode.STORE, Opcode.GET}, None,
)


def _opcodes(module):
    return {ins.op for _block, _index, ins in module.main.instructions()}


@pytest.mark.parametrize("name", sorted(COMPILED))
def test_compiled_code_agrees(name):
    source, level, opcodes, fault = COMPILED[name]
    module = compile_source(source, level).module
    assert opcodes <= _opcodes(module), name
    observed = assert_parity(module, 4, CM5)
    if fault is None:
        assert "fault" not in observed
    else:
        assert re.search(fault, observed["fault"]), observed


def test_local_array_landing_is_a_fused_get():
    source, level, _ops, _fault = COMPILED["get_lands_in_local_array"]
    module = compile_source(source, level).module
    assert any(
        ins.op is Opcode.GET and ins.local_array is not None
        for _block, _index, ins in module.main.instructions()
    )


def test_missing_sync_ctr_faults_from_the_resumed_run():
    """A remote get leaves PENDING in its temp and returns into the
    next run, whose guarded read must raise the oracle's text."""
    module = compile_source(CASES["remote_mid_run"], O1).module
    for block in module.main.blocks:
        block.instrs = [
            ins for ins in block.instrs if ins.op is not Opcode.SYNC_CTR
        ]
    observed = assert_parity(module, 4, CM5)
    assert "before its get completed (missing sync_ctr" in observed["fault"]


class TestOracleHasTeeth:
    """Each miscompiled fast path must break parity on a program that
    passes it unpatched (cf. ``test_wrong_decoded_cost_is_caught``)."""

    def caught(self, monkeypatch, method, mutant, level=O1):
        module = compile_source(CASES["remote_mid_run"], level).module
        assert_parity(module, 4, CM5)
        monkeypatch.setattr(decode._RunCompiler, method, mutant)
        with pytest.raises(AssertionError):
            assert_parity(module, 4, CM5)

    def test_local_get_charged_as_a_send_is_caught(self, monkeypatch):
        real = decode._RunCompiler.add_shared

        def mutant(self, ins, index):
            real(self, ins, index)
            if ins.op is Opcode.GET:
                machine = self.machine
                self.cost += machine.send_overhead - machine.local_access

        assert CM5.send_overhead != CM5.local_access
        self.caught(monkeypatch, "add_shared", mutant)

    def test_local_put_that_bumps_its_counter_is_caught(self, monkeypatch):
        real = decode._RunCompiler.add_shared

        def mutant(self, ins, index):
            real(self, ins, index)
            if ins.op is Opcode.PUT:
                self.emit(
                    f"proc.counters[{ins.counter}] = "
                    f"proc.counters.get({ins.counter}, 0) + 1"
                )

        self.caught(monkeypatch, "add_shared", mutant)

    def test_sync_ctr_that_skips_the_reexecution_count_is_caught(
            self, monkeypatch):
        real = decode._RunCompiler.bail

        def mutant(self, ins, index):
            skipped = ins.op is Opcode.SYNC_CTR
            self.count -= skipped
            real(self, ins, index)
            self.count += skipped

        self.caught(monkeypatch, "bail", mutant, level=O3)


# -- decode cost -----------------------------------------------------------


def _chain(n):
    """One block of n x (remote read; use): at O1 it is
    ``sync_ctr; get; sync_ctr; binop`` n times over."""
    body = "".join(
        f"  s = s + A[(MYPROC * 2 + {2 + k % 5}) % 8];\n" for k in range(n)
    )
    return (
        "shared int A[8];\n"
        f"void main() {{\n  int s;\n  s = MYPROC;\n{body}"
        "  A[MYPROC * 2] = s;\n}\n"
    )


def _decode_cost(monkeypatch, module):
    """(generated source lines, instruction ids in compile order)."""
    lines, compiled = [], []

    def spy(name):
        real = getattr(decode._RunCompiler, name)

        def wrapper(self, ins, *rest):
            compiled.append(id(ins))
            return real(self, ins, *rest)

        monkeypatch.setattr(decode._RunCompiler, name, wrapper)

    for name in ("add", "add_shared", "add_sync_ctr"):
        spy(name)
    real_compile = decode._RunCompiler.compile

    def counting_compile(self, next_index):
        lines.append(len(self.lines))
        return real_compile(self, next_index)

    monkeypatch.setattr(decode._RunCompiler, "compile", counting_compile)
    Simulator(module, 4, CM5)
    return sum(lines), compiled


@pytest.mark.parametrize("level", [OptLevel.O0, O1], ids=lambda l: l.value)
def test_decode_is_linear(monkeypatch, level):
    """Suffix-run resume entries (one recompiled suffix per fused
    shared op) made this quadratic: 4x the source at 2x the block."""
    cost = {}
    for n in (24, 48):
        module = compile_source(_chain(n), level).module
        if level is O1:
            assert {Opcode.GET, Opcode.SYNC_CTR} <= _opcodes(module)
        cost[n], compiled = _decode_cost(monkeypatch, module)
        monkeypatch.undo()
        assert len(compiled) == len(set(compiled)), "compiled twice"
        fusable = [
            ins for _block, _index, ins in module.main.instructions()
            if ins.op is not Opcode.RET
        ]
        assert len(compiled) == len(fusable)  # untraced SC: all fuses
    assert cost[48] <= 2.2 * cost[24], cost


class TestCodeMemo:
    SOURCE = CASES["remote_mid_run"]

    def test_second_simulator_compiles_nothing(self):
        module = compile_source(self.SOURCE, O3).module
        Simulator(module, 4, CM5)
        before = decode._step_code.cache_info()
        Simulator(module, 4, CM5)
        after = decode._step_code.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_a_different_cost_is_a_different_text(self):
        module = compile_source(self.SOURCE, O3).module
        Simulator(module, 4, CM5)
        before = decode._step_code.cache_info()
        dearer = dataclasses.replace(CM5, cpu_op=CM5.cpu_op + 1)
        slow = Simulator(module, 4, dearer).run()
        assert decode._step_code.cache_info().misses > before.misses
        assert slow.cycles > Simulator(module, 4, CM5).run().cycles

    def test_the_memo_is_bounded(self):
        bound = decode._step_code.cache_info().maxsize
        assert bound == 512
        for seed in range(12):
            source = progen.generate(seed)
            for level in (O1, O3):
                Simulator(compile_source(source, level).module, 4, CM5)
            assert decode._step_code.cache_info().currsize <= bound
        assert decode._step_code.cache_info().currsize == bound, (
            "the sweep above no longer fills the memo: widen it")


def test_profile_shows_the_decode_run_split():
    module = compile_source(CASES["remote_mid_run"], O3).module
    with profiled() as profile:
        Simulator(module, 4, CM5).run()
    assert profile.passes["simulate.decode"].calls == 1
    assert profile.passes["simulate.run"].calls == 1
    steps = profile.counters["decode.steps"]
    assert 0 < steps and profile.counters["decode.code_memo_hits"] <= steps


# -- host time: optimized code is on the fast path -------------------------


def _run_seconds(program, procs):
    best, messages = None, None
    for _ in range(5):
        simulator = Simulator(program.module, procs, CM5)
        start = time.perf_counter()
        result = simulator.run()
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
        messages = result.total_messages
    return best, messages


def test_optimized_code_runs_on_the_fast_path():
    """A ratio of two runs on one host, so runner speed cancels: before
    get/put/store/sync_ctr fused, ocean@64 at O3 took 2.46x its O0 host
    time for the same messages (em3d@64 1.71x); now ~1.1x."""
    ratios = {}
    for name, source in (
        ("ocean", ocean.scaled_source(64, 4, 1)),
        ("em3d", em3d.scaled_source(64, 8, 2)),
    ):
        base, base_messages = _run_seconds(
            compile_source(source, OptLevel.O0), 64)
        fast, fast_messages = _run_seconds(compile_source(source, O3), 64)
        ratios[name] = fast / base
        print(f"{name}@64 O3/O0 host time {ratios[name]:.2f} "
              f"({fast_messages} vs {base_messages} messages)")
        if name == "ocean":
            assert fast_messages == base_messages
    assert ratios["ocean"] <= 1.5, ratios
