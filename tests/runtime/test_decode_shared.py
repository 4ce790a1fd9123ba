"""Differential tests for the decoded interpreter's shared-access fusing.

The threaded-code decoder compiles shared accesses straight into the
fused run: the local-home case of O0's ``read_shared``/``write_shared``
and of the split-phase ``get``/``put``/``store`` of O1 and up (direct
storage-list indexing), the remote-home case of the split-phase three
(the request is built and sent inline, and the run goes on), and a
fall-through ``sync_ctr``.  It bails out to the generic handler only
for a remote blocking access and a non-zero counter.  Every case here
runs the production engine and the test-side seed interpreter
(``reference_engine.py``, which reaches all of these through
``Processor._access``/``_sync_ctr``) and demands identical snapshots,
cycles, per-processor stats and fault messages — the specialization
must be invisible except in wall time.  The decode-cost tests at the
end pin the other half: every instruction is compiled once, no step
text is compiled twice, and a split-phase access does not end its run.
"""

import dataclasses
import gc
import inspect
import re
import statistics
import time

import pytest

from repro import OptLevel, compile_source
from repro.apps import em3d, ocean
from repro.errors import RuntimeFault
from repro.fuzz import progen
from repro.ir.instructions import Instr, Opcode
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

# Remote homes: the fused run builds and sends the request itself and
# goes on, while the oracle still issues it through ``_access``.  Every
# access below is homed on another processor, for every processor.
#: Four gets in one block at O3 — two land in ``b``, two in temps —
#: then the first ``sync_ctr``: one run issues all of them.
REMOTE_GETS = (
    "shared int A[8];\n"
    "shared int R[8];\n"
    "void main() {\n"
    "  int b[3]; int x; int y;\n"
    "  A[MYPROC * 2] = MYPROC; A[MYPROC * 2 + 1] = 7;\n"
    "  barrier();\n"
    "  b[0] = A[(MYPROC * 2 + 2) % 8]; b[1] = A[(MYPROC * 2 + 3) % 8];\n"
    "  x = A[(MYPROC * 2 + 5) % 8]; y = A[(MYPROC * 2 + 6) % 8];\n"
    "  R[MYPROC * 2] = b[0] + b[1] * 2 + x * 3 + y;\n"
    "}\n"
)
REMOTE_WRITE = (
    "shared int D[8];\n"
    "void main() {\n"
    "  double x; x = 2.75 + MYPROC;\n"
    "  D[(MYPROC * 2 + 2) % 8] = x;\n"
    "  barrier();\n"
    "  D[MYPROC * 2 + 1] = D[(MYPROC * 2 + 2) % 8] * 1.5;\n"
    "}\n"
)
PENDING_TEXT = (
    r"^RuntimeFault: P\d: read of %rd\.\d+ before its get completed "
    r"\(missing sync_ctr — compiler bug\)$"
)
COMPILED.update({
    "remote_gets_then_sync_ctr": (
        REMOTE_GETS, O3, {Opcode.GET, Opcode.SYNC_CTR}, None,
    ),
    "remote_gets_then_sync_ctr_o1": (
        REMOTE_GETS, O1, {Opcode.GET, Opcode.PUT, Opcode.SYNC_CTR}, None,
    ),
    "remote_get_landing_oob": (
        "shared double G[8];\n"
        "void main() {\n"
        "  double b[4]; int i;\n"
        "  i = MYPROC + 3;\n"
        "  b[i] = G[(MYPROC * 2 + 2) % 8];\n"
        "  barrier();\n"
        "  G[MYPROC * 2] = b[3];\n"
        "}\n",
        O3, {Opcode.GET},
        r"P1: fused get target b\S* index 4 out of range \[0, 4\)",
    ),
    "remote_get_oob_trailing": (
        "shared int B[4][3];\n"
        "void main() { int x; x = B[(MYPROC + 1) % 4][MYPROC * 2]; }\n",
        O1, {Opcode.GET}, r"B: index 4 out of range \[0, 3\)",
    ),
    "remote_put_oob_trailing": (
        "shared int B[4][3];\n"
        "void main() { B[(MYPROC + 1) % 4][MYPROC + 1] = 1; }\n",
        O1, {Opcode.PUT}, r"B: index 3 out of range \[0, 3\)",
    ),
    "remote_put_int_coercion": (
        REMOTE_WRITE, O1, {Opcode.PUT, Opcode.GET}, None,
    ),
    "remote_store_int_coercion": (
        REMOTE_WRITE, O3, {Opcode.STORE, Opcode.GET}, None,
    ),
    "remote_get_read_before_sync_ctr": (
        REMOTE_GETS, O3, {Opcode.GET, Opcode.SYNC_CTR}, PENDING_TEXT,
    ),
    "remote_get_landing_read_before_sync_ctr": (
        "shared int A[8];\n"
        "shared int R[8];\n"
        "void main() {\n"
        "  int b[2];\n"
        "  A[MYPROC * 2] = MYPROC;\n"
        "  barrier();\n"
        "  b[0] = A[(MYPROC * 2 + 2) % 8];\n"
        "  R[MYPROC * 2] = b[0] * 2;\n"
        "}\n",
        O3, {Opcode.GET, Opcode.SYNC_CTR, Opcode.LOAD_LOCAL}, PENDING_TEXT,
    ),
    "remote_store_then_store_sync": (
        REMOTE_WRITE, O3, {Opcode.STORE}, None,
    ),
})
COMPILED["remote_store_oob_trailing"] = (
    COMPILED["remote_put_oob_trailing"][0], O3, {Opcode.STORE},
    r"B: index 3 out of range \[0, 3\)",
)


def _strip_sync_ctrs(module):
    """Leaves each get's PENDING value for a later read to find."""
    for block in module.main.blocks:
        block.instrs = [
            ins for ins in block.instrs if ins.op is not Opcode.SYNC_CTR
        ]


def _store_sync_after_stores(module):
    """Waits out each one-way store where it issues."""
    for block in module.main.blocks:
        instrs = []
        for ins in block.instrs:
            instrs.append(ins)
            if ins.op is Opcode.STORE:
                instrs.append(Instr(Opcode.STORE_SYNC))
        block.instrs = instrs


#: IR edits applied to a compiled case before it runs.
EDITS = {
    "remote_get_read_before_sync_ctr": _strip_sync_ctrs,
    "remote_get_landing_read_before_sync_ctr": _strip_sync_ctrs,
    "remote_store_then_store_sync": _store_sync_after_stores,
}


def _opcodes(module):
    return {ins.op for _block, _index, ins in module.main.instructions()}


def _compiled(name):
    """The case's module: compiled, its opcodes checked, then edited."""
    source, level, opcodes, _fault = COMPILED[name]
    module = compile_source(source, level).module
    assert opcodes <= _opcodes(module), name
    EDITS.get(name, lambda module: None)(module)
    return module


def _check(name, observed):
    fault = COMPILED[name][3]
    if fault is None:
        assert "fault" not in observed
    else:
        assert re.search(fault, observed["fault"]), observed


@pytest.mark.parametrize("name", sorted(COMPILED))
def test_compiled_code_agrees(name):
    _check(name, assert_parity(_compiled(name), 4, CM5))


@pytest.mark.parametrize("name", sorted(COMPILED))
def test_compiled_code_agrees_under_jitter(name):
    """Reordering wire times move every remote completion."""
    _check(name, assert_parity(_compiled(name), 4, CM5.with_jitter(350)))


def test_local_array_landing_is_a_fused_get():
    source, level, _ops, _fault = COMPILED["get_lands_in_local_array"]
    module = compile_source(source, level).module
    assert any(
        ins.op is Opcode.GET and ins.local_array is not None
        for _block, _index, ins in module.main.instructions()
    )


def test_missing_sync_ctr_faults_from_the_resumed_run():
    """A remote get leaves PENDING in its temp and its run goes on: the
    guarded read, later in the same run, must raise the oracle's text."""
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


def _mutant(old, new):
    """``_RunCompiler`` with one line of its source rewritten."""
    source = inspect.getsource(decode._RunCompiler)
    assert source.count(old) == 1, f"stale mutation anchor: {old!r}"
    namespace = dict(vars(decode))
    exec(compile("from __future__ import annotations\n"
                 + source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace["_RunCompiler"]


#: name -> (anchor, rewrite, COMPILED case): one-line miscompilations of
#: the remote branch a split-phase access emits.
REMOTE_MUTANTS = {
    "get_skips_its_counter_bump": (
        'self.emit(f"    proc.counters[',
        'reads or self.emit(f"    proc.counters[',
        "remote_gets_then_sync_ctr",
    ),
    "put_charged_local_access": (
        "{self.cost + machine.send_overhead}",
        "{self.cost + (machine.local_access if op is Opcode.PUT"
        " else machine.send_overhead)}",
        "remote_put_int_coercion",
    ),
    "store_skips_outstanding_stores": (
        'self.emit("    sim.outstanding_stores += 1")', "pass",
        "remote_store_then_store_sync",
    ),
}


@pytest.mark.parametrize("name", sorted(REMOTE_MUTANTS))
def test_remote_issue_mutant_is_caught(name, monkeypatch):
    old, new, case = REMOTE_MUTANTS[name]
    module = _compiled(case)
    assert_parity(module, 4, CM5)
    monkeypatch.setattr(decode, "_RunCompiler", _mutant(old, new))
    with pytest.raises(AssertionError):
        assert_parity(module, 4, CM5)


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


def test_split_phase_access_does_not_end_a_run():
    """From the barrier to the first ``sync_ctr``, REMOTE_GETS at O3 is
    k remote gets and the arithmetic between them: one run issues them
    all, and the ``sync_ctr`` heads the next — 2 run heads, not k + 1."""
    module = compile_source(REMOTE_GETS, O3).module
    block = module.main.blocks[0]
    ops = [ins.op for ins in block.instrs]
    start = ops.index(Opcode.BARRIER) + 1
    stop = ops.index(Opcode.SYNC_CTR, start)
    assert ops[start:stop].count(Opcode.GET) >= 3
    steps = Simulator(module, 4, CM5).decoded(module.main)[block.label]
    heads = [
        index for index in range(start, stop + 1)
        if steps[index] is not decode._unreachable
    ]
    assert heads == [start, stop]


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


# -- optimized code is on the fast path --------------------------------------

#: The two fast-path kernels at 64 processors.
FAST_PATH_KERNELS = (
    ("ocean", ocean.scaled_source(64, 4, 1)),
    ("em3d", em3d.scaled_source(64, 8, 2)),
)


def test_optimized_code_bails_no_more_per_message():
    """The structural half of the fast-path claim, in exact counts.  A
    bail leaves a fused run for an ``OPS`` handler: O0's blocking remote
    reads all bail, while O3's split-phase accesses issue from the run
    and only a ``sync_ctr`` that must wait bails."""
    expected = {
        "ocean": (({"read_shared": 1008}, 2400), ({"sync_ctr": 126}, 2400)),
        "em3d": (({"read_shared": 2048}, 5248), ({"sync_ctr": 256}, 5248)),
    }
    for name, source in FAST_PATH_KERNELS:
        observed = []
        for level in (OptLevel.O0, O3):
            simulator = Simulator(compile_source(source, level).module, 64,
                                  CM5)
            messages = simulator.run().total_messages
            observed.append((dict(simulator.bails), messages))
        assert tuple(observed) == expected[name], name
        (base, base_messages), (fast, fast_messages) = observed
        assert sum(fast.values()) * base_messages \
            <= sum(base.values()) * fast_messages


# -- host time: optimized code is on the fast path -------------------------


def _paired_ratio(base, fast, procs, pairs=21):
    """(median over ``pairs`` back-to-back runs of fast/base host
    seconds, [base messages, fast messages]).  Each pair runs both
    programs within ~0.1 s, in alternating order, with the collector
    quiet during each timed run, so a load spike or a collection lands
    in a few pairs, and the median drops them."""
    ratios, messages = [], [None, None]
    for pair in range(pairs):
        seconds = [None, None]
        for k in ((0, 1) if pair % 2 == 0 else (1, 0)):
            simulator = Simulator((base, fast)[k].module, procs, CM5)
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                result = simulator.run()
                seconds[k] = time.perf_counter() - start
            finally:
                gc.enable()
            messages[k] = result.total_messages
        ratios.append(seconds[1] / seconds[0])
    return statistics.median(ratios), messages


def test_optimized_code_runs_on_the_fast_path():
    """A ratio of two runs on one host, so runner speed cancels: before
    get/put/store/sync_ctr fused, ocean@64 at O3 took 2.46x its O0 host
    time for the same messages (em3d@64 1.71x); with the local-home
    case fused, 1.07x (1.04x).  Now that a remote split-phase access
    issues from its run and the run goes on, optimized code must beat
    O0 on both (~0.89x and ~0.75x).  Single pairs on a shared 2-core
    host read 0.6x to 1.3x for ocean, and a best-of-five ratio read
    above 0.95 in about one window in ten; the median of 21 alternating
    pairs stayed within 0.88-0.93 (EXPERIMENTS.md, "Why ocean's O3/O0
    host ratio spreads").  The exact bail counts of
    ``test_optimized_code_bails_no_more_per_message`` pin the
    structural claim apart from the host."""
    ratios = {}
    for name, source in FAST_PATH_KERNELS:
        ratio, (base_messages, fast_messages) = _paired_ratio(
            *[compile_source(source, level) for level in (OptLevel.O0, O3)],
            64)
        ratios[name] = ratio
        print(f"{name}@64 O3/O0 host time {ratio:.2f} "
              f"({fast_messages} vs {base_messages} messages)")
        if name == "ocean":
            assert fast_messages == base_messages
    assert ratios["ocean"] <= 0.95 and ratios["em3d"] <= 0.95, ratios
