"""Conflict-set construction tests."""

from repro.analysis.accesses import AccessKind, AccessSet
from repro.analysis.conflicts import (
    ConflictSet,
    indices_may_collide,
    local_dependence_pairs,
)
from repro.ir.symrefine import refine_index_metadata
from tests.helpers import inlined


def build(source):
    module = inlined(source)
    refine_index_metadata(module.main)
    accesses = AccessSet(module.main)
    return accesses, ConflictSet(accesses)


def find(accesses, kind=None, var=None):
    result = [
        a for a in accesses
        if (kind is None or a.kind is kind)
        and (var is None or a.var == var)
    ]
    assert result, f"no access kind={kind} var={var}"
    return result[0]


class TestDataConflicts:
    def test_write_read_same_scalar(self):
        accesses, conflicts = build(
            "shared int X; void main() { X = 1; int y = X; }"
        )
        w = find(accesses, AccessKind.WRITE)
        r = find(accesses, AccessKind.READ)
        assert conflicts.has_edge(w, r)
        assert conflicts.has_edge(r, w)  # both directions initially

    def test_read_read_no_conflict(self):
        accesses, conflicts = build(
            "shared int X; void main() { int a = X; int b = X; }"
        )
        first, second = accesses.accesses
        assert not conflicts.has_edge(first, second)

    def test_different_variables_no_conflict(self):
        accesses, conflicts = build(
            "shared int X; shared int Y; void main() { X = 1; Y = 2; }"
        )
        x, y = accesses.accesses
        assert not conflicts.has_edge(x, y)

    def test_self_conflict_on_scalar_write(self):
        accesses, conflicts = build(
            "shared int X; void main() { X = 1; }"
        )
        w = accesses.accesses[0]
        assert conflicts.has_edge(w, w)

    def test_myproc_indexed_write_no_self_conflict(self):
        accesses, conflicts = build(
            "shared double A[8]; void main() { A[MYPROC] = 1.0; }"
        )
        w = accesses.accesses[0]
        assert not conflicts.has_edge(w, w)

    def test_block_distributed_loop_no_self_conflict(self):
        accesses, conflicts = build(
            "shared double A[64];\n"
            "void main() { for (int i = 0; i < 8; i = i + 1) {"
            " A[MYPROC * 8 + i] = 1.0; } }"
        )
        w = find(accesses, AccessKind.WRITE)
        assert not conflicts.has_edge(w, w)

    def test_neighbor_read_conflicts_with_owner_write(self):
        accesses, conflicts = build(
            "shared double A[64];\n"
            "void main() {\n"
            "  int nb = (MYPROC + 1) % PROCS;\n"
            "  double x;\n"
            "  for (int i = 0; i < 8; i = i + 1) {"
            " A[MYPROC * 8 + i] = 1.0; }\n"
            "  x = A[nb * 8];\n"
            "}"
        )
        w = find(accesses, AccessKind.WRITE)
        r = find(accesses, AccessKind.READ)
        assert conflicts.has_edge(w, r)

    def test_proc_guarded_accesses_no_cross_conflict(self):
        accesses, conflicts = build(
            "shared int X;\n"
            "void main() { if (MYPROC == 0) { X = 1; X = 2; } }"
        )
        first, second = accesses.accesses
        # Both pinned to processor 0: no cross-processor conflict.
        assert not conflicts.has_edge(first, second)
        assert not conflicts.has_edge(first, first)

    def test_differently_guarded_accesses_conflict(self):
        accesses, conflicts = build(
            "shared int X;\n"
            "void main() {\n"
            "  if (MYPROC == 0) { X = 1; }\n"
            "  if (MYPROC == 1) { int y = X; }\n"
            "}"
        )
        w = find(accesses, AccessKind.WRITE)
        r = find(accesses, AccessKind.READ)
        assert conflicts.has_edge(w, r)


class TestSyncConflicts:
    def test_post_wait_conflict(self):
        accesses, conflicts = build(
            "shared flag_t f; void main() { post(f); wait(f); }"
        )
        p = find(accesses, AccessKind.POST)
        w = find(accesses, AccessKind.WAIT)
        assert conflicts.has_edge(p, w)

    def test_wait_wait_no_conflict(self):
        accesses, conflicts = build(
            "shared flag_t f; void main() {"
            " if (MYPROC) { wait(f); } else { wait(f); } }"
        )
        waits = [a for a in accesses if a.kind is AccessKind.WAIT]
        assert not conflicts.has_edge(waits[0], waits[1])

    def test_myproc_flag_posts_disjoint(self):
        accesses, conflicts = build(
            "shared flag_t f[8]; void main() { post(f[MYPROC]); }"
        )
        p = accesses.accesses[0]
        assert not conflicts.has_edge(p, p)

    def test_barriers_conflict(self):
        accesses, conflicts = build(
            "void main() { barrier(); barrier(); }"
        )
        b1, b2 = accesses.accesses
        assert conflicts.has_edge(b1, b2)

    def test_lock_ops_conflict(self):
        accesses, conflicts = build(
            "shared lock_t l; void main() { lock(l); unlock(l); }"
        )
        lk = find(accesses, AccessKind.LOCK)
        ul = find(accesses, AccessKind.UNLOCK)
        assert conflicts.has_edge(lk, ul)
        assert conflicts.has_edge(lk, lk)


class TestConflictSetOps:
    def test_remove_direction(self):
        accesses, conflicts = build(
            "shared int X; void main() { X = 1; int y = X; }"
        )
        w = find(accesses, AccessKind.WRITE)
        r = find(accesses, AccessKind.READ)
        conflicts.remove_direction(r, w)
        assert conflicts.has_edge(w, r)
        assert not conflicts.has_edge(r, w)

    def test_copy_is_independent(self):
        accesses, conflicts = build(
            "shared int X; void main() { X = 1; int y = X; }"
        )
        clone = conflicts.copy()
        w = find(accesses, AccessKind.WRITE)
        r = find(accesses, AccessKind.READ)
        clone.remove_direction(r, w)
        assert conflicts.has_edge(r, w)

    def test_edge_listing_matches_count(self):
        accesses, conflicts = build(
            "shared int X; void main() { X = 1; int y = X; }"
        )
        assert len(conflicts.edges()) == conflicts.directed_edge_count()


class TestLocalDependences:
    def deps(self, source):
        module = inlined(source)
        refine_index_metadata(module.main)
        return local_dependence_pairs(AccessSet(module.main))

    def test_write_then_read_same_scalar(self):
        module = inlined(
            "shared int X; void main() { X = 1; int y = X; }"
        )
        refine_index_metadata(module.main)
        accesses = AccessSet(module.main)
        pairs = local_dependence_pairs(accesses)
        w, r = accesses.accesses
        assert (w.uid, r.uid) in pairs

    def test_read_read_no_dependence(self):
        deps = self.deps(
            "shared int X; void main() { int a = X; int b = X; }"
        )
        assert deps == set()

    def test_disjoint_elements_no_dependence(self):
        deps = self.deps(
            "shared double A[8]; void main() { A[0] = 1.0; A[1] = 2.0; }"
        )
        assert deps == set()

    def test_pairs_relate_distinct_accesses(self):
        # Every iteration writes X, but no codegen query asks about an
        # access and itself, so no (u, u) pair is built.
        deps = self.deps(
            "shared int X; void main() {"
            " for (int i = 0; i < 3; i = i + 1) { X = i; } }"
        )
        assert deps == set()

    def test_loop_indexed_no_self_dependence(self):
        deps = self.deps(
            "shared double A[8]; void main() {"
            " for (int i = 0; i < 8; i = i + 1) { A[i] = 1.0; } }"
        )
        assert deps == set()
