"""Differential tests for the decoded interpreter's shared-access fusing.

The threaded-code decoder compiles *local-home*
``READ_SHARED``/``WRITE_SHARED`` accesses straight into the fused run
(direct storage-list indexing) and bails out to the generic executor
for remote homes, mid-run.  Every case here runs the production engine
and the test-side seed interpreter (``reference_engine.py``) and
demands identical snapshots, cycles, per-processor stats and fault
messages — the specialization must be invisible except in wall time.
"""

import pytest

from repro.errors import RuntimeFault
from repro.runtime import CM5, run_module
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
