"""Packed-int counter allocation == the set-based reference allocator.

``coalesce_counters`` keeps live sets and the interference relation as
packed ints and touches a row only where the live set changes;
``coalesce_counters_reference`` (``counters_reference.py``, beside this
file) is the original allocator — every pair of ``sorted(live)`` at
every program point — kept as the executable specification.  This suite
pins them together two ways:

* a sweep that runs both on copies of the same pre-coalesce
  function — the five kernels, >= 100 generated programs from five fuzz
  profiles and the barrier ladder, at O1-O4 — and compares the rewritten
  IR text and the ``(before, after)`` counts, and
* three hand-written programs, one per rule that keeps the change-point
  formulation exact, each with a mutant of the production allocator
  (the rule's line rewritten in the module source) that must fail the
  same assertion.
"""

import copy
import inspect

import pytest

from benchmarks.bench_compile_time import _program_for
from repro import OptLevel, compile_source
from repro.apps import ALL_APPS
from repro.codegen import counters
from repro.fuzz.progen import generate_program
from tests.codegen.counters_reference import coalesce_counters_reference

LEVELS = (OptLevel.O1, OptLevel.O2, OptLevel.O3, OptLevel.O4)
PROFILES = ("mixed", "sync_heavy", "lock_heavy", "barrier_misaligned", "racy")
#: seeds per profile; 5 profiles x 21 = 105 generated programs.
SEEDS_PER_PROFILE = 21


def _compile_with(allocate, source, levels, monkeypatch):
    """Compiles ``source`` with ``allocate`` standing in for the pass."""
    monkeypatch.setattr("repro.pipeline.passes.coalesce_counters", allocate)
    for level in levels:
        compile_source(source, level)
    monkeypatch.undo()


def _assert_allocators_match(source, monkeypatch, label) -> int:
    """Checks every O1-O4 allocation against the reference allocator's
    on a copy of the same function; returns the counters allocated."""
    allocated = []

    def checked(function):
        ref = copy.deepcopy(function)
        counts = counters.coalesce_counters(function)
        assert counts == coalesce_counters_reference(ref), label
        assert str(function) == str(ref), label
        allocated.append(counts[0])
        return counts

    _compile_with(checked, source, LEVELS, monkeypatch)
    assert len(allocated) == len(LEVELS)
    return sum(allocated)


def _pre_coalesce(source, level, monkeypatch):
    """The level's working function as ``coalesce-counters`` receives it."""
    captured = []

    def capture(function):
        captured.append(copy.deepcopy(function))
        return counters.coalesce_counters(function)

    _compile_with(capture, source, [level], monkeypatch)
    (function,) = captured
    return function


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda app: app.name)
def test_kernels_match_reference(app, monkeypatch):
    source = app.source(app.supported_procs[0])
    assert _assert_allocators_match(source, monkeypatch, app.name) > 0


@pytest.mark.parametrize("profile", PROFILES)
def test_generated_programs_match_reference(profile, monkeypatch):
    total = 0
    for seed in range(SEEDS_PER_PROFILE):
        program = generate_program(seed, profile)
        total += _assert_allocators_match(
            program.source, monkeypatch, f"{profile}/seed={seed}"
        )
    # The sweep must actually allocate counters, not trivially agree on
    # programs that have none.
    assert total > 0, profile


@pytest.mark.parametrize("size", [32, 64, 128])
def test_barrier_ladder_matches_reference(size, monkeypatch):
    source = _program_for(size)
    assert _assert_allocators_match(source, monkeypatch, size) > size


# -- teeth: one hand-written program per change-point rule ------------------


def _mutant(old: str, new: str):
    """The production module with one line rewritten, as a namespace."""
    source = inspect.getsource(counters)
    assert source.count(old) == 1, f"stale mutation anchor: {old!r}"
    namespace = {}
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace


def _physical_counters(function):
    return {
        instr.counter
        for _b, _i, instr in function.instructions()
        if instr.counter is not None
    }


#: The two puts are never outstanding together on any one path; only
#: the join's union holds both, ahead of the syncs past the barrier.
JOIN_ONLY = """
shared double A[8]; shared double B[8];
void main() {
  int nb = (MYPROC + 1) % PROCS;
  if (MYPROC % 2 == 0) { A[nb] = 1.0; } else { B[nb] = 2.0; }
  barrier();
}
"""


@pytest.mark.parametrize("level", [OptLevel.O1, OptLevel.O2],
                         ids=lambda lv: lv.value)
def test_join_only_interference_keeps_two_counters(level, monkeypatch):
    function = _pre_coalesce(JOIN_ONLY, level, monkeypatch)

    def check(coalesce):
        work = copy.deepcopy(function)
        assert coalesce(work) == (2, 2)
        assert len(_physical_counters(work)) == 2

    check(coalesce_counters_reference)
    check(counters.coalesce_counters)
    no_entry_clique = _mutant(
        "rows[position] |= live ^ (1 << position)", "pass"
    )
    with pytest.raises(AssertionError):
        check(no_entry_clique["coalesce_counters"])


#: The get's counter is synced at its first use and again at the later
#: observers (a second use, the ret), by then inside the put's range.
SYNC_INSIDE_RANGE = """
shared int X; shared int Y;
void main() {
  int a = X;
  int b = a + 1;
  Y = b;
  int c = a + 2;
  barrier();
}
"""


@pytest.mark.parametrize("level", [OptLevel.O1, OptLevel.O2],
                         ids=lambda lv: lv.value)
def test_sync_inside_another_range_keeps_them_apart(level, monkeypatch):
    function = _pre_coalesce(SYNC_INSIDE_RANGE, level, monkeypatch)

    def check(coalesce):
        work = copy.deepcopy(function)
        assert coalesce(work) == (2, 2)
        get, put = (
            instr for _b, _i, instr in work.instructions()
            if instr.op.value in ("get", "put")
        )
        assert get.counter != put.counter

    check(coalesce_counters_reference)
    check(counters.coalesce_counters)
    no_sync_star = _mutant(
        "if not live & bit:", "if not (is_sync or live & bit):"
    )
    with pytest.raises(AssertionError):
        check(no_sync_star["coalesce_counters"])


#: The fused gather's counter is live around the back edge, so every
#: iteration re-initiates it while it is still pending.
LOOP_REINITIATION = """
shared double A[8]; shared double Out[8];
void main() {
  double buf[4];
  int nb = (MYPROC + 1) % PROCS;
  for (int i = 0; i < 4; i = i + 1) { buf[i] = A[nb]; }
  Out[MYPROC] = buf[0] + buf[3];
  barrier();
}
"""


@pytest.mark.parametrize("level", [OptLevel.O1, OptLevel.O2],
                         ids=lambda lv: lv.value)
def test_reinitiation_in_a_loop_does_not_self_interfere(level, monkeypatch):
    function = _pre_coalesce(LOOP_REINITIATION, level, monkeypatch)
    bit_of = {
        counter: 1 << position
        for position, counter in enumerate(
            sorted(_physical_counters(function))
        )
    }

    def check(namespace):
        work = copy.deepcopy(function)
        rows = namespace["_interference_rows"](work, bit_of)
        assert not any(row & bit for row, bit in zip(rows, bit_of.values()))
        # First-fit never consults a counter's own bit, so the coloring
        # is the reference's either way.
        ref = copy.deepcopy(function)
        assert namespace["coalesce_counters"](work) == (
            coalesce_counters_reference(ref)
        )
        assert str(work) == str(ref)

    check(vars(counters))
    with pytest.raises(AssertionError):
        check(_mutant("if not live & bit:", "if True:"))
