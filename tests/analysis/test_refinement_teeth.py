"""Teeth for the §5 refinements: each one is load-bearing.

Every refinement ``analyze_function`` composes on top of Shasha–Snir
must change some program's SYNC delay set when it is switched off by a
one-line mutant; a refinement no program notices is dead analysis.
Each row names the refinement, the mutant, the program that notices it
and the delay-set size before and after.

Post→wait precedence (§5.1) changes no delay set of the kernels or of
the progen profiles (EXPERIMENTS.md §8 has the corpora).  It is kept
as the paper's Figure 5 derivation, and its row asserts that
derivation: without the post→wait edge, R loses W X → R X and Figure 5
is analysed like Figure 1.

r9, symbolic index disjointness, has rows for the pieces of its one
integer system (``symbolic._system`` / ``symbolic._solvable``): the
*different* relation, box enumeration, and the bijection of a shift
other than 0.  Each runs with an empty ``may_be_equal`` memo, so no
answer of the unmutated code leaks into the mutant's.

The last rows are converse mutants, ones that are too aggressive.  Each
drops delays that SC needs: locks that share *any* guard exclude each
other's accesses; every pair of MYPROC-dependent index forms is claimed
disjoint; step 5 drops both directions of a conflict edge that R orders
either way.
"""

import inspect
import textwrap

import pytest

from repro.analysis import conflicts, symbolic
from repro.analysis.accesses import AccessKind
from repro.analysis.delays import AnalysisLevel, analyze_function
from repro.analysis.symbolic import may_be_equal
from repro.analysis.sync.locks import LockGuards
from repro.apps import APPS
from repro.fuzz.progen import generate_program
from tests.helpers import FIGURE_5, delay_pairs, inlined

#: A causality chain: processor 0 writes A then B, processor 1 reads B
#: and posts, processor 2 waits and reads A.  SC needs [W A, W B], and
#: the only cycle behind it crosses the post -> wait conflict edge in
#: the direction R orders it.
CAUSAL_CHAIN = """shared int A; shared int B; shared flag_t f;
void main() {
  if (MYPROC == 0) { A = 1; B = 1; }
  else { if (MYPROC == 1) { int b = B; post(f); }
  else { wait(f); int a = A; } }
}
"""


def _mutant(old: str, new: str, function=analyze_function):
    """``function`` with one line of its source rewritten."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"stale mutation anchor: {old!r}"
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


def _source(program):
    if program == "barrier_misaligned/100":
        return generate_program(100, "barrier_misaligned", 4).source
    name, procs = program.split("@")
    return APPS[name].source(int(procs))


def _sync_delays(program, analyze=analyze_function):
    function = inlined(_source(program)).main
    return analyze(function, AnalysisLevel.SYNC).delays_by_index


#: refinement -> (program, anchor, replacement, |D_SYNC| before, after).
TEETH = {
    "r3 D1 folded into R": (
        "ocean@8", "precedence.add_pairs(d1)", "pass", 34, 65),
    "r3 closure of R": (
        "ocean@8", "precedence.transitive_close()", "pass", 34, 65),
    "r5 conflict orientation": (
        "ocean@8",
        "oriented.remove_directions(precedence.predecessor_masks())",
        "pass", 34, 46),
    "r7 Figure 6: successors of u": (
        "barrier_misaligned/100",
        "mask = precedence.successors_mask(u.index)", "mask = 0",
        423, 441),
    "r7 Figure 6: predecessors of v": (
        "barrier_misaligned/100",
        "mask |= pred_masks[v.index]", "pass", 423, 441),
    "r8 lock exclusion": (
        "health@8", "mask |= guards.exclusion_mask(u, v)", "pass",
        123, 131),
}


#: The programs r9's rows run, and their |D_SYNC| unmutated.
R9_PROGRAMS = ("cholesky@8", "em3d@8", "epithelial@8", "ocean@8")
R9_BEFORE = (12, 66, 62, 34)

#: r9 piece -> (function in ``symbolic``, anchor, replacement,
#: |D_SYNC| of ``R9_PROGRAMS`` after).
R9_TEETH = {
    "r9 different relation": (
        "_system", "elif both and (shift_l == shift_r",
        "elif False and (shift_l == shift_r", (13, 92, 82, 46)),
    "r9 box enumeration": (
        "_solvable", "if box > _ENUM_LIMIT:", "if True:",
        (12, 92, 82, 46)),
    "r9 bijection of a non-zero shift": (
        "_system", "elif both and (shift_l == shift_r",
        "elif both and (shift_l == shift_r == 0", (12, 66, 63, 34)),
}


@pytest.mark.parametrize("refinement", sorted(TEETH))
def test_switching_off_changes_the_delay_set(refinement):
    program, old, new, before, after = TEETH[refinement]
    delays = _sync_delays(program)
    mutated = _sync_delays(program, _mutant(old, new))
    assert (len(delays), len(mutated)) == (before, after)


@pytest.mark.parametrize("piece", sorted(R9_TEETH))
def test_switching_off_an_r9_piece_changes_the_delay_set(piece, monkeypatch):
    name, old, new, after = R9_TEETH[piece]
    before = tuple(len(_sync_delays(p)) for p in R9_PROGRAMS)
    monkeypatch.setattr(
        symbolic, name, _mutant(old, new, getattr(symbolic, name)))
    monkeypatch.setattr(symbolic, "_may_equal_cache", {})
    mutated = tuple(len(_sync_delays(p)) for p in R9_PROGRAMS)
    assert (before, mutated) == (R9_BEFORE, after)


def test_post_wait_precedence_derives_figure_5():
    mutant = _mutant("precedence.add(post, wait)", "pass")

    def w_x_precedes_r_x(analyze):
        result = analyze(inlined(FIGURE_5).main, AnalysisLevel.SYNC)
        w_x, r_x = (
            next(a for a in result.accesses
                 if a.kind is kind and a.var == "X")
            for kind in (AccessKind.WRITE, AccessKind.READ)
        )
        return result.precedence.has(w_x, r_x), result.delays_by_index

    kept, delays = w_x_precedes_r_x(analyze_function)
    lost, mutated = w_x_precedes_r_x(mutant)
    assert (kept, lost) == (True, False)
    # Without the edge, W X -> W Y and R Y -> R X are delayed again.
    assert (len(delays), len(mutated)) == (4, 6)


def test_union_of_lock_guards_drops_delays(monkeypatch):
    """Converse mutant: accesses under *different* locks exclude each
    other as if one lock guarded both."""
    common = _mutant(
        "return self.guards.get(a.index, frozenset()) & self.guards.get(",
        "return self.guards.get(a.index, frozenset()) | self.guards.get(",
        LockGuards.common_guards,
    )
    assert len(_sync_delays("health@8")) == 123
    monkeypatch.setattr(LockGuards, "common_guards", common)
    assert len(_sync_delays("health@8")) == 115


def test_myproc_forms_claimed_disjoint_drops_delays(monkeypatch):
    """Converse mutant: any two MYPROC-dependent index forms are taken
    to be disjoint across processors, so ``A[MYPROC]`` no longer
    conflicts with ``A[MYPROC + 1]``."""
    disjoint = _mutant(
        "    cached = _may_equal_cache.get(key)",
        "    cached = False if not same_processor and all("
        "MYPROC_SYM in f.symbols() or f.perm_terms for f in (left, right)"
        ") else _may_equal_cache.get(key)",
        may_be_equal,
    )
    assert len(_sync_delays("ocean@8")) == 34
    monkeypatch.setattr(conflicts, "may_be_equal", disjoint)
    assert len(_sync_delays("ocean@8")) == 6


def test_orienting_both_directions_drops_a_causality_delay():
    """Converse mutant: step 5 drops both directions of a conflict edge
    whenever R orders the pair in either direction."""
    mutant = _mutant(
        "oriented.remove_directions(precedence.predecessor_masks())",
        "oriented.remove_directions([p | precedence.successors_mask(i)"
        " for i, p in enumerate(precedence.predecessor_masks())])",
    )

    def delays(analyze):
        return delay_pairs(
            analyze(inlined(CAUSAL_CHAIN).main, AnalysisLevel.SYNC))

    kept, mutated = delays(analyze_function), delays(mutant)
    assert ("write A", "write B") in kept
    assert sorted(set(kept) - set(mutated)) == [("write A", "write B")]
    assert (len(kept), len(mutated)) == (3, 2)
