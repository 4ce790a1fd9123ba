"""Synchronization analysis tests: post-wait, locks, R."""

from repro.analysis.accesses import AccessKind, AccessSet
from repro.analysis.conflicts import ConflictSet
from repro.analysis.cycle.spmd import BackPathEngine
from repro.analysis.delays import AnalysisLevel, analyze_function
from repro.analysis.sync.locks import LockGuards, guard_key_of
from repro.analysis.sync.postwait import match_post_wait
from repro.analysis.sync.precedence import PrecedenceRelation
from repro.ir.dominators import DominatorTree
from repro.ir.symrefine import refine_index_metadata
from tests.helpers import FIGURE_5, inlined


def build(source):
    module = inlined(source)
    refine_index_metadata(module.main)
    accesses = AccessSet(module.main)
    return module.main, accesses


def find(accesses, kind, var=None):
    return next(
        a for a in accesses
        if a.kind is kind and (var is None or a.var == var)
    )


class TestPostWaitMatching:
    def test_scalar_flag_matches(self):
        _fn, accesses = build(
            "shared flag_t f; void main() {"
            " if (MYPROC == 0) { post(f); } wait(f); }"
        )
        pairs = match_post_wait(accesses)
        assert len(pairs) == 1
        post, wait = pairs[0]
        assert post.kind is AccessKind.POST
        assert wait.kind is AccessKind.WAIT

    def test_different_flags_do_not_match(self):
        _fn, accesses = build(
            "shared flag_t f; shared flag_t g;\n"
            "void main() { if (MYPROC == 0) { post(f); } wait(g); }"
        )
        assert match_post_wait(accesses) == []

    def test_indexed_flags_match_when_indices_may_meet(self):
        _fn, accesses = build(
            "shared flag_t f[8];\n"
            "void main() { post(f[MYPROC]);"
            " wait(f[(MYPROC + 1) % PROCS]); }"
        )
        assert len(match_post_wait(accesses)) == 1

    def test_disjoint_indexed_flags_no_match(self):
        _fn, accesses = build(
            "shared flag_t f[8];\n"
            "void main() { if (MYPROC == 0) { post(f[2]); }"
            " if (MYPROC == 1) { wait(f[5]); } }"
        )
        assert match_post_wait(accesses) == []


class TestPrecedenceRelation:
    def test_transitive_closure(self):
        _fn, accesses = build(
            "shared int A; shared int B; shared int C;\n"
            "void main() { A = 1; B = 2; C = 3; }"
        )
        a, b, c = accesses.accesses
        rel = PrecedenceRelation(accesses)
        rel.add(a, b)
        rel.add(b, c)
        rel.transitive_close()
        assert rel.has(a, c)

    def test_irreflexive(self):
        _fn, accesses = build("shared int A; void main() { A = 1; }")
        a = accesses.accesses[0]
        rel = PrecedenceRelation(accesses)
        rel.add(a, a)
        assert not rel.has(a, a)

    def test_predecessor_mask(self):
        _fn, accesses = build(
            "shared int A; shared int B; void main() { A = 1; B = 2; }"
        )
        a, b = accesses.accesses
        rel = PrecedenceRelation(accesses)
        rel.add(a, b)
        assert rel.predecessors_mask(b.index) == 1 << a.index

    def test_figure_5_derivation(self):
        """W X precedes R X via the post->wait edge and D1 anchors."""
        result = analyze_function(
            inlined(FIGURE_5).main, AnalysisLevel.SYNC
        )
        accesses = result.accesses
        w_x = find(accesses, AccessKind.WRITE, "X")
        r_x = find(accesses, AccessKind.READ, "X")
        assert result.precedence.has(w_x, r_x)


class TestLockGuards:
    def _guards(self, source):
        fn, accesses = build(source)
        dominators = DominatorTree(fn)
        conflicts = ConflictSet(accesses)
        engine = BackPathEngine(accesses, conflicts)
        d1 = engine.delay_set(
            pair_filter=lambda u, v: u.is_sync or v.is_sync
        )
        return accesses, LockGuards(accesses, dominators, d1)

    def test_guarded_access(self):
        accesses, guards = self._guards(
            "shared lock_t l; shared int C;\n"
            "void main() { lock(l); C = C + 1; unlock(l); }"
        )
        write = find(accesses, AccessKind.WRITE, "C")
        assert guards.guards[write.index] == frozenset({("l", ())})

    def test_unguarded_access(self):
        accesses, guards = self._guards(
            "shared lock_t l; shared int C;\n"
            "void main() { C = 1; lock(l); C = 2; unlock(l); }"
        )
        first = accesses.accesses[0]
        assert guards.guards[first.index] == frozenset()

    def test_conditional_lock_not_must_held(self):
        accesses, guards = self._guards(
            "shared lock_t l; shared int C;\n"
            "void main() { if (MYPROC == 0) { lock(l); }"
            " C = 1; if (MYPROC == 0) { unlock(l); } }"
        )
        write = find(accesses, AccessKind.WRITE, "C")
        assert guards.guards[write.index] == frozenset()

    def test_per_processor_lock_gives_no_guard(self):
        accesses, guards = self._guards(
            "shared lock_t L[8]; shared int C;\n"
            "void main() { lock(L[MYPROC]); C = 1;"
            " unlock(L[MYPROC]); }"
        )
        write = find(accesses, AccessKind.WRITE, "C")
        assert guards.guards[write.index] == frozenset()

    def test_exclusion_mask_covers_guarded_peers(self):
        accesses, guards = self._guards(
            "shared lock_t l; shared int C; shared int D;\n"
            "void main() { lock(l); C = 1; D = 2; unlock(l); }"
        )
        c = find(accesses, AccessKind.WRITE, "C")
        d = find(accesses, AccessKind.WRITE, "D")
        mask = guards.exclusion_mask(c, d)
        assert mask >> c.index & 1  # endpoints' own copies excluded too
        assert mask >> d.index & 1

    def test_guard_key_requires_constant_index(self):
        accesses, _guards = self._guards(
            "shared lock_t L[4]; shared int C;\n"
            "void main() { lock(L[1]); C = 1; unlock(L[1]); }"
        )
        lk = find(accesses, AccessKind.LOCK)
        assert guard_key_of(lk) == ("L", (1,))
