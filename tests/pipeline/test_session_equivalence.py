"""Golden equivalence: shared-session compiles are byte-identical to
cold per-level compiles.

The whole cross-level artifact-reuse story rests on uid stability
(``Module.copy`` preserves instruction uids; the analyses and constraints
answer by uid), so one analysis of the pristine inlined module must
yield *exactly* the code a cold compile produces.  These tests pin that
for the litmus suite and every application kernel.
"""

import pytest

from repro import OptLevel, compile_source
from repro.apps import ALL_APPS
from repro.compiler import open_session
from tests.helpers import FIGURE_1, FIGURE_5

LEVELS = (OptLevel.O0, OptLevel.O1, OptLevel.O3, OptLevel.O4)

BARRIER_STENCIL = """
shared int A[16];
shared int B[16];
void main() {
  int i; int t;
  for (i = 0; i < 4; i = i + 1) {
    A[MYPROC * 4 + i] = MYPROC + i;
  }
  barrier();
  for (i = 0; i < 4; i = i + 1) {
    t = A[(MYPROC * 4 + i + 1) % 16];
    B[MYPROC * 4 + i] = t + 1;
  }
  barrier();
}
"""

LOCK_COUNTER = """
shared int total;
shared lock_t L;
void main() {
  int mine;
  mine = MYPROC + 1;
  lock(L);
  total = total + mine;
  unlock(L);
  barrier();
}
"""

LITMUS = {
    "figure1": FIGURE_1,
    "figure5": FIGURE_5,
    "barrier-stencil": BARRIER_STENCIL,
    "lock-counter": LOCK_COUNTER,
}


def assert_programs_identical(shared, cold, label):
    assert str(shared.module) == str(cold.module), label
    assert shared.splitc() == cold.splitc(), label
    assert shared.report == cold.report, label
    # Delay sets compare by access index; the uid pairs are keyed to
    # process-global instruction uids and are not comparable across
    # separate frontend runs.
    assert (shared.analysis.delays_by_index
            == cold.analysis.delays_by_index), label


@pytest.mark.parametrize("name", sorted(LITMUS))
def test_litmus_shared_equals_cold(name):
    source = LITMUS[name]
    session = open_session(source)
    programs = session.compile_levels(LEVELS)
    for level, shared in zip(LEVELS, programs):
        cold = compile_source(source, level)
        assert_programs_identical(shared, cold, f"{name}@{level.value}")


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_apps_shared_equals_cold(app):
    procs = app.supported_procs[0]
    source = app.source(procs)
    session = open_session(source)
    programs = session.compile_levels(LEVELS)
    for level, shared in zip(LEVELS, programs):
        cold = compile_source(source, level)
        assert_programs_identical(shared, cold,
                                  f"{app.name}@{level.value}")


def test_litmus_shared_runs_match_cold_runs():
    """Same bytes must mean same behavior: spot-check execution."""
    source = LITMUS["barrier-stencil"]
    session = open_session(source)
    for level in LEVELS:
        shared = session.compile(level).run(4, seed=1)
        cold = compile_source(source, level).run(4, seed=1)
        assert shared.cycles == cold.cycles, level
        assert shared.snapshot() == cold.snapshot(), level
