"""Symbolic index expression tests (the conflict analysis core)."""

import pytest

from repro import OptLevel
from repro.analysis.symbolic import (
    OPAQUE,
    SymExpr,
    VarDomain,
    may_be_equal,
)
from repro.apps import ALL_APPS, get_app
from repro.compiler import open_session
from repro.perf import profiled


def sym(name):
    return SymExpr.symbol(name)


MY = sym("MYPROC")


class TestArithmetic:
    def test_addition_merges_terms(self):
        expr = sym("a") + sym("a") + SymExpr.constant(3)
        assert dict(expr.terms) == {"a": 2}
        assert expr.const == 3

    def test_subtraction_cancels(self):
        expr = (sym("a") + sym("b")) - sym("a")
        assert dict(expr.terms) == {"b": 1}

    def test_zero_coefficients_dropped(self):
        expr = sym("a") - sym("a")
        assert expr.terms == ()
        assert expr.is_constant

    def test_scale(self):
        expr = (sym("a") + SymExpr.constant(2)).scale(3)
        assert dict(expr.terms) == {"a": 3}
        assert expr.const == 6

    def test_multiply_const(self):
        expr = sym("a").multiply(SymExpr.constant(4))
        assert dict(expr.terms) == {"a": 4}

    def test_multiply_symbols_is_none(self):
        assert sym("a").multiply(sym("b")) is None

    def test_multiply_by_procs(self):
        expr = SymExpr.procs().multiply(sym("i"))
        assert dict(expr.procs_terms) == {"i": 1}

    def test_procs_times_procs_is_none(self):
        assert SymExpr.procs().multiply(SymExpr.procs()) is None

    def test_perm_arithmetic(self):
        expr = SymExpr.perm(1).scale(8) + SymExpr.constant(2)
        assert expr.perm_terms == ((1, 8),)
        assert (expr - expr).is_constant

    def test_rename_map(self):
        expr = sym("old").rename_map({"old": "new"})
        assert dict(expr.terms) == {"new": 1}

    def test_substitute(self):
        expr = MY.scale(4) + sym("i") + SymExpr.procs()
        value = expr.substitute({"MYPROC": 2, "i": 3}, procs=8)
        assert value == 8 + 3 + 8

    def test_substitute_perm(self):
        expr = SymExpr.perm(1)
        assert expr.substitute({"MYPROC": 7}, procs=8) == 0

    def test_substitute_incomplete(self):
        assert sym("x").substitute({}, procs=4) is None


class TestMayBeEqualCrossProcessor:
    """p != q collision tests — the conflict-set question."""

    def test_opaque_always_collides(self):
        assert may_be_equal(OPAQUE, sym("i"))
        assert may_be_equal(sym("i"), OPAQUE)

    def test_same_constant(self):
        assert may_be_equal(SymExpr.constant(3), SymExpr.constant(3))

    def test_different_constants(self):
        assert not may_be_equal(SymExpr.constant(3), SymExpr.constant(4))

    def test_myproc_disjoint_across_procs(self):
        assert not may_be_equal(MY, MY)

    def test_myproc_shifted_collides(self):
        assert may_be_equal(MY, MY + SymExpr.constant(1))

    def test_scaled_myproc_parity(self):
        # 2p vs 2q+1 never equal (parity).
        assert not may_be_equal(
            MY.scale(2), MY.scale(2) + SymExpr.constant(1)
        )

    def test_block_distributed_rows_disjoint(self):
        dom = {"i": VarDomain(0, 7), "j": VarDomain(0, 7)}
        left = MY.scale(8) + sym("i")
        right = MY.scale(8) + sym("j")
        assert not may_be_equal(left, right, dom, dom)

    def test_block_boundary_collides(self):
        # p*8 - 1 vs q*8 + i: neighbor's boundary row.
        dom = {"i": VarDomain(0, 7)}
        left = MY.scale(8) - SymExpr.constant(1)
        right = MY.scale(8) + sym("i")
        assert may_be_equal(left, right, {}, dom)

    def test_unbounded_loop_vars_collide(self):
        left = MY.scale(8) + sym("i")
        right = MY.scale(8) + sym("j")
        assert may_be_equal(left, right)  # no domains: conservative

    def test_cyclic_distribution_disjoint(self):
        left = SymExpr.procs().multiply(sym("i")) + MY
        right = SymExpr.procs().multiply(sym("j")) + MY
        assert not may_be_equal(left, right)

    def test_free_symbol_collides(self):
        assert may_be_equal(sym("x"), sym("y"))

    def test_same_index_no_myproc_collides(self):
        # A[i] vs A[i]: two procs can pick the same i.
        dom = {"i": VarDomain(0, 3)}
        assert may_be_equal(sym("i"), sym("i"), dom, dom)


class TestMayBeEqualPerm:
    def test_same_shift_disjoint(self):
        dom = {"i": VarDomain(0, 7), "j": VarDomain(0, 7)}
        left = SymExpr.perm(1).scale(8) + sym("i")
        right = SymExpr.perm(1).scale(8) + sym("j")
        assert not may_be_equal(left, right, dom, dom)

    def test_different_shift_collides(self):
        assert may_be_equal(SymExpr.perm(1), SymExpr.perm(2))

    def test_perm_vs_myproc_collides(self):
        # (p+1)%P == q is satisfiable with p != q.
        assert may_be_equal(SymExpr.perm(1), MY)

    def test_perm_zero_equals_myproc(self):
        # perm(0) is MYPROC; same-shift bijection: disjoint.
        assert not may_be_equal(SymExpr.perm(0), MY)

    def test_perm_vs_constant_collides(self):
        assert may_be_equal(SymExpr.perm(1), SymExpr.constant(3))

    def test_two_perm_terms_conservative(self):
        both = SymExpr.perm(1) + SymExpr.perm(2)
        assert may_be_equal(both, both)


class TestMayBeEqualSameProcessor:
    def test_same_form_same_proc_collides(self):
        dom = {"i": VarDomain(0, 7)}
        form = MY.scale(8) + sym("i")
        assert may_be_equal(form, form, dom, dom, same_processor=True)

    def test_myproc_vs_myproc_plus_one_same_proc(self):
        assert not may_be_equal(
            MY, MY + SymExpr.constant(1), same_processor=True
        )

    def test_same_shift_perm_same_proc_collides(self):
        assert may_be_equal(
            SymExpr.perm(1), SymExpr.perm(1), same_processor=True
        )

    def test_distinct_shift_same_coeff_same_proc(self):
        # (p+1)%P != (p+2)%P for P > 1: disjoint.
        assert not may_be_equal(
            SymExpr.perm(1), SymExpr.perm(2), same_processor=True
        )


class TestVarDomain:
    def test_bounded(self):
        dom = VarDomain(0, 7)
        assert dom.is_bounded
        assert dom.size == 8

    def test_half_bounded(self):
        assert not VarDomain(lo=0).is_bounded
        assert VarDomain(lo=0).size is None

    def test_empty_range(self):
        assert VarDomain(5, 4).size == 0


def _sweep_counters(app):
    with profiled() as prof:
        open_session(app.source(4)).compile_levels(tuple(OptLevel))
    return prof.to_dict()["counters"]


class TestSessionCacheCounters:
    """The symbolic-feasibility memos are hit on real kernels, via a
    shared O0-O4 session sweep."""

    @pytest.mark.parametrize("app_name", ["em3d", "ocean"])
    def test_app_sweep_counters_fire(self, app_name):
        counters = _sweep_counters(get_app(app_name))
        assert counters.get("symbolic.cache_hits", 0) > 0, counters

    def test_most_apps_report_cache_hits(self):
        with_symbolic_hits = sum(
            _sweep_counters(app).get("symbolic.cache_hits", 0) > 0
            for app in ALL_APPS
        )
        assert with_symbolic_hits >= 3
