"""Lowering unit tests: AST -> IR."""

import pytest

from repro.analysis.delays import AnalysisLevel, analyze_function
from repro.analysis.symbolic import SymExpr
from repro.ir.cfg import Module
from repro.ir.inline import inline_all
from repro.ir.instructions import Opcode
from tests.helpers import frontend


def instrs_of(module: Module, name: str = "main"):
    return [
        instr for _b, _i, instr in module.functions[name].instructions()
    ]


def ops_of(module: Module, name: str = "main"):
    return [instr.op for instr in instrs_of(module, name)]


def shared_accesses(module: Module):
    return [i for i in instrs_of(module) if i.is_shared_access]


class TestBasicLowering:
    def test_empty_main(self):
        module = frontend("void main() { }")
        assert ops_of(module) == [Opcode.RET]

    def test_shared_scalar_write(self):
        module = frontend("shared int X; void main() { X = 5; }")
        ops = ops_of(module)
        assert Opcode.WRITE_SHARED in ops

    def test_shared_scalar_read(self):
        module = frontend(
            "shared int X; void main() { int y = X; }"
        )
        assert Opcode.READ_SHARED in ops_of(module)

    def test_local_array_roundtrip(self):
        module = frontend(
            "void main() { double b[4]; b[1] = 2.0; double x = b[1]; }"
        )
        ops = ops_of(module)
        assert Opcode.STORE_LOCAL in ops
        assert Opcode.LOAD_LOCAL in ops

    def test_sync_statements(self):
        module = frontend(
            "shared flag_t f; shared lock_t l;\n"
            "void main() { post(f); wait(f); lock(l); unlock(l); "
            "barrier(); }"
        )
        ops = ops_of(module)
        for op in (Opcode.POST, Opcode.WAIT, Opcode.LOCK, Opcode.UNLOCK,
                   Opcode.BARRIER):
            assert op in ops

    def test_intrinsic_call(self):
        module = frontend("void main() { double x = sqrt(2.0); }")
        assert Opcode.INTRINSIC in ops_of(module)

    def test_user_call(self):
        module = frontend(
            "int f(int a) { return a + 1; } void main() { int x = f(1); }"
        )
        assert Opcode.CALL in ops_of(module)

    def test_uninitialized_local_gets_zero(self):
        module = frontend("void main() { int x; }")
        consts = [i for i in instrs_of(module) if i.op is Opcode.CONST]
        assert any(c.value == 0 for c in consts)


class TestControlFlow:
    def test_if_produces_branch(self):
        module = frontend("void main() { int x = 0; if (x) { x = 1; } }")
        assert Opcode.BRANCH in ops_of(module)

    def test_if_else_blocks(self):
        module = frontend(
            "void main() { int x = 0; if (x) { x = 1; } else { x = 2; } }"
        )
        labels = [b.label for b in module.main.blocks]
        assert any("then" in l for l in labels)
        assert any("else" in l for l in labels)

    def test_while_has_back_edge(self):
        module = frontend(
            "void main() { int x = 0; while (x < 3) { x = x + 1; } }"
        )
        function = module.main
        preds = function.predecessors()
        # Some block is reached from a later block (the loop latch).
        header = next(b for b in function.blocks if "while_head" in b.label)
        assert len(preds[header.label]) == 2

    def test_for_structure(self):
        module = frontend(
            "void main() { int s = 0;"
            " for (int i = 0; i < 4; i = i + 1) { s = s + i; } }"
        )
        labels = [b.label for b in module.main.blocks]
        assert any("for_head" in l for l in labels)
        assert any("for_body" in l for l in labels)

    def test_code_after_return_dropped(self):
        module = frontend("void main() { return; barrier(); }")
        assert Opcode.BARRIER not in ops_of(module)

    def test_verify_passes(self):
        module = frontend(
            "void main() { int i; for (i = 0; i < 2; i = i + 1) {"
            " if (i) { barrier(); } } }"
        )
        module.verify()


class TestIndexMetadata:
    def test_scalar_access_has_empty_meta(self):
        module = frontend("shared int X; void main() { X = 1; }")
        access = shared_accesses(module)[0]
        assert access.index_meta is not None
        assert access.index_meta.exprs == ()

    def test_myproc_index_form(self):
        module = frontend(
            "shared double A[8]; void main() { A[MYPROC] = 1.0; }"
        )
        expr = shared_accesses(module)[0].index_meta.exprs[0]
        assert isinstance(expr, SymExpr)
        assert dict(expr.terms) == {"MYPROC": 1}

    def test_affine_index_form(self):
        module = frontend(
            "shared double A[64];\n"
            "void main() { int i = 3; A[MYPROC * 8 + i + 1] = 1.0; }"
        )
        expr = shared_accesses(module)[0].index_meta.exprs[0]
        terms = dict(expr.terms)
        assert terms["MYPROC"] == 8
        assert expr.const == 1
        assert len(terms) == 2  # MYPROC and the local i

    def test_opaque_index(self):
        module = frontend(
            "shared double A[8]; shared int K;\n"
            "void main() { A[K] = 1.0; }"
        )
        # Index comes from shared memory: opaque.
        write = [a for a in shared_accesses(module)
                 if a.op is Opcode.WRITE_SHARED][-1]
        assert write.index_meta.exprs[0] is None

    def test_loop_range_recorded(self):
        module = frontend(
            "shared double A[8];\n"
            "void main() { for (int i = 0; i < 8; i = i + 1) {"
            " A[i] = 1.0; } }"
        )
        meta = shared_accesses(module)[0].index_meta
        assert len(meta.loops) == 1
        assert (meta.loops[0].lo, meta.loops[0].hi) == (0, 7)

    def test_le_loop_bound(self):
        module = frontend(
            "shared double A[9];\n"
            "void main() { for (int i = 0; i <= 8; i = i + 1) {"
            " A[i] = 1.0; } }"
        )
        loop = shared_accesses(module)[0].index_meta.loops[0]
        assert loop.hi == 8

    def test_non_constant_bound_is_unbounded(self):
        module = frontend(
            "shared double A[8];\n"
            "void main() { int n = MYPROC;"
            " for (int i = 0; i < n; i = i + 1) { A[i] = 1.0; } }"
        )
        loop = shared_accesses(module)[0].index_meta.loops[0]
        assert loop.hi is None

    def test_loop_var_reassignment_invalidates_range(self):
        module = frontend(
            "shared double A[8];\n"
            "void main() { for (int i = 0; i < 4; i = i + 1) {"
            " i = i + 1; A[i] = 1.0; } }"
        )
        loop = shared_accesses(module)[0].index_meta.loops[0]
        assert loop.lo is None and loop.hi is None

    def test_nested_loops_both_recorded(self):
        module = frontend(
            "shared double G[4][4];\n"
            "void main() { for (int i = 0; i < 4; i = i + 1) {"
            " for (int j = 0; j < 4; j = j + 1) { G[i][j] = 0.0; } } }"
        )
        meta = shared_accesses(module)[0].index_meta
        assert len(meta.loops) == 2

    def test_proc_guard_recorded(self):
        module = frontend(
            "shared int X; void main() { if (MYPROC == 2) { X = 1; } }"
        )
        access = shared_accesses(module)[0]
        assert access.index_meta.proc_guard == (2,)

    def test_no_guard_outside_if(self):
        module = frontend("shared int X; void main() { X = 1; }")
        assert shared_accesses(module)[0].index_meta.proc_guard is None

    @pytest.mark.parametrize("index", ["-MYPROC + 7", "-(MYPROC - 7)"])
    def test_negated_index_matches_subtraction(self, index):
        # Unary minus keeps the index affine: the reversed-processor
        # exchange below is analysed exactly as with ``7 - MYPROC``.
        # An opaque index would add each write's self-conflict (4
        # conflicts, not 2).
        source = (
            "shared double A[8]; shared double B[8];\n"
            "void main() {\n"
            "  A[INDEX] = 1.0; double x = A[MYPROC];\n"
            "  B[INDEX] = 1.0; double y = B[MYPROC];\n"
            "}\n"
        )

        def observe(text):
            module = frontend(source.replace("INDEX", text))
            result = analyze_function(
                inline_all(module).main, AnalysisLevel.SYNC
            )
            form = shared_accesses(module)[0].index_meta.exprs[0]
            return (form, sorted(result.delays_by_index),
                    result.stats.conflict_pairs)

        form, delays, conflicts = observe(index)
        assert (form, delays, conflicts) == observe("7 - MYPROC")
        assert (len(delays), conflicts) == (2, 2)

    def test_inline_mod_procs_matches_temp(self):
        # Lowering and symrefine share one ``% PROCS`` rule: the
        # neighbor index written inline is the permutation form a temp
        # resolves to.  An opaque index would add the write's
        # self-conflict (2 conflicts, not 1).
        source = (
            "shared int A[64];\n"
            "void main() { DECL A[INDEX] = 1; int a = A[MYPROC]; }\n"
        )

        def observe(decl, index):
            module = frontend(
                source.replace("DECL", decl).replace("INDEX", index))
            result = analyze_function(
                inline_all(module).main, AnalysisLevel.SYNC
            )
            return (sorted(result.delays_by_index),
                    result.stats.conflict_pairs)

        inline = observe("", "(MYPROC + 1) % PROCS")
        assert inline == observe("int nb = (MYPROC + 1) % PROCS;", "nb")
        assert inline[1] == 1
        module = frontend(source.replace("DECL", "").replace(
            "INDEX", "(MYPROC + 1) % PROCS"))
        form = shared_accesses(module)[0].index_meta.exprs[0]
        assert form == SymExpr.perm(1)

    def test_non_constant_guard_ignored(self):
        module = frontend(
            "shared int X; void main() {"
            " if (MYPROC == PROCS - 1) { X = 1; } }"
        )
        assert shared_accesses(module)[0].index_meta.proc_guard is None


class TestShadowing:
    def test_shadowed_variable_uses_inner_symbol(self):
        module = frontend(
            "shared double A[8];\n"
            "void main() { int i = 1; { int i = 2; A[i] = 1.0; } }"
        )
        expr = shared_accesses(module)[0].index_meta.exprs[0]
        symbols = expr.symbols()
        assert len(symbols) == 1
        # Two distinct temps named i.N exist; the access uses the inner.
        moves = [
            instr for instr in module.main.entry.instrs
            if instr.op is Opcode.MOVE or instr.op is Opcode.CONST
        ]
        assert len({m.dest.name for m in moves if m.dest}) >= 2
