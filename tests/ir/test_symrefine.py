"""Index-metadata refinement tests (perm recognition, substitution)."""

from repro.analysis.symbolic import SymExpr
from repro.ir.instructions import Opcode
from repro.ir.symrefine import refine_index_metadata
from repro import OptLevel
from tests.helpers import analyze, delay_pairs, inlined, run_and_snapshot


def refined_write_exprs(source):
    module = inlined(source)
    refine_index_metadata(module.main)
    return [
        i.index_meta.exprs
        for _b, _x, i in module.main.instructions()
        if i.op is Opcode.WRITE_SHARED
    ]


class TestPermRecognition:
    def test_neighbor_mod_procs(self):
        (exprs,) = refined_write_exprs(
            "shared double A[64];\n"
            "void main() { int nb = (MYPROC + 1) % PROCS;"
            " A[nb] = 1.0; }"
        )
        expr = exprs[0]
        assert expr.perm_terms == ((1, 1),)

    def test_left_neighbor_with_procs_offset(self):
        (exprs,) = refined_write_exprs(
            "shared double A[64];\n"
            "void main() { int nb = (MYPROC + PROCS - 1) % PROCS;"
            " A[nb] = 1.0; }"
        )
        assert exprs[0].perm_terms == ((-1, 1),)

    def test_scaled_perm_plus_loop_var(self):
        (exprs,) = refined_write_exprs(
            "shared double A[64];\n"
            "void main() { int nb = (MYPROC + 1) % PROCS;\n"
            "  for (int i = 0; i < 8; i = i + 1) {"
            " A[nb * 8 + i] = 1.0; } }"
        )
        expr = exprs[0]
        assert expr.perm_terms == ((1, 8),)
        assert len(expr.terms) == 1  # the loop variable

    def test_const_mod_folds(self):
        (exprs,) = refined_write_exprs(
            "shared double A[8];\n"
            "void main() { int k = 13 % 8; A[k] = 1.0; }"
        )
        assert exprs[0].is_constant
        assert exprs[0].const == 5

    def test_negative_const_mod_folds_like_the_runtime(self):
        # C's remainder takes the dividend's sign: (0 - 7) % 4 is -3,
        # so both forms write A[1], inline and through a temp.
        for body in ("int k = (0 - 7) % 4; A[k + 4] = 1.0;",
                     "A[(0 - 7) % 4 + 4] = 1.0;"):
            (exprs,) = refined_write_exprs(
                "shared double A[8];\nvoid main() { " + body + " }")
            assert exprs[0] == SymExpr.constant(1)
        _result, snapshot = run_and_snapshot(
            "shared int A[8];\n"
            "void main() { if (MYPROC == 0) { A[(0 - 7) % 4 + 4] = 1; } }",
            OptLevel.O0, 2)
        assert snapshot["A"][1] == 1

    def test_multi_def_stays_symbol(self):
        (exprs,) = refined_write_exprs(
            "shared double A[8];\n"
            "void main() { int k = 0; k = (MYPROC + 1) % PROCS;"
            " A[k] = 1.0; }"
        )
        # k has two definitions (the implicit init counts as a MOVE).
        assert not exprs[0].perm_terms

    def test_reassigned_operand_is_not_the_access_value(self):
        # ``nb`` holds j's value at its def (5); j is 7 at the access,
        # so the write is A[0] and conflicts with the read of A[0].
        source = (
            "shared int A[8]; shared int F;\n"
            "void main() { int j = 5; int nb = j; j = 7;\n"
            "  if (MYPROC == 0) { A[INDEX] = 1; F = 1; }\n"
            "  else { int f = F; int a = A[0]; } }"
        )
        exprs = refined_write_exprs(source.replace("INDEX", "nb - j + 2"))
        assert not exprs[0][0].is_constant
        delays = delay_pairs(analyze(source.replace("INDEX", "nb - j + 2")))
        assert delays == delay_pairs(analyze(source.replace("INDEX", "0")))
        assert ("write A", "write F") in delays
        assert ("read F", "read A") in delays

    def test_chain_through_moves(self):
        (exprs,) = refined_write_exprs(
            "shared double A[64];\n"
            "void main() { int a = MYPROC + 1; int b = a % PROCS;"
            " int c = b * 4; A[c + 2] = 1.0; }"
        )
        expr = exprs[0]
        assert expr.perm_terms == ((1, 4),)
        assert expr.const == 2

    def test_guard_override_gives_procs_form(self):
        (exprs,) = refined_write_exprs(
            "shared double A[64];\n"
            "void main() {\n"
            "  for (int k = 0; k < 16; k = k + 1) {\n"
            "    if (k % PROCS == MYPROC) { A[k] = 1.0; }\n"
            "  }\n"
            "}"
        )
        expr = exprs[0]
        # k rewrites to MYPROC + PROCS*guard inside the ownership guard.
        assert dict(expr.terms).get("MYPROC") == 1
        assert len(expr.procs_terms) == 1

    def test_refinement_idempotent(self):
        module = inlined(
            "shared double A[64];\n"
            "void main() { int nb = (MYPROC + 1) % PROCS; A[nb] = 1.0; }"
        )
        refine_index_metadata(module.main)
        first = [
            i.index_meta.exprs
            for _b, _x, i in module.main.instructions()
            if i.is_shared_access
        ]
        refine_index_metadata(module.main)
        second = [
            i.index_meta.exprs
            for _b, _x, i in module.main.instructions()
            if i.is_shared_access
        ]
        assert first == second


class TestRefinementConsequences:
    def test_neighbor_scatter_has_no_self_conflict(self):
        from repro.analysis.accesses import AccessSet
        from repro.analysis.conflicts import ConflictSet

        module = inlined(
            "shared double A[64];\n"
            "void main() { int nb = (MYPROC + 1) % PROCS;\n"
            "  for (int i = 0; i < 8; i = i + 1) {"
            " A[nb * 8 + i] = 1.0; } }"
        )
        refine_index_metadata(module.main)
        accesses = AccessSet(module.main)
        conflicts = ConflictSet(accesses)
        write = next(a for a in accesses if a.kind.value == "write")
        assert not conflicts.has_edge(write, write)

    def test_unrefined_opaque_self_conflicts(self):
        from repro.analysis.accesses import AccessSet
        from repro.analysis.conflicts import ConflictSet

        module = inlined(
            "shared double A[64]; shared int K;\n"
            "void main() { A[K] = 1.0; }"
        )
        refine_index_metadata(module.main)
        accesses = AccessSet(module.main)
        conflicts = ConflictSet(accesses)
        write = next(
            a for a in accesses
            if a.kind.value == "write" and a.var == "A"
        )
        assert conflicts.has_edge(write, write)
