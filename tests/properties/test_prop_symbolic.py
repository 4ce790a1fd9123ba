"""Property-based tests for the symbolic index domain (hypothesis).

The key property is soundness: whenever :func:`may_be_equal` claims two
index forms are *disjoint*, no concrete assignment of processors,
PROCS, and variable values may make them equal.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.symbolic import (
    MYPROC_SYM,
    SymExpr,
    VarDomain,
    may_be_equal,
)

#: A small pool of symbol names (shared between the two sides so the
#: renaming logic is exercised).
NAMES = ("i", "j", "k")

coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def sym_exprs(draw):
    """Random extended-affine forms over loop vars, MYPROC, perm, PROCS."""
    const = draw(st.integers(min_value=-8, max_value=8))
    terms = {}
    for name in NAMES:
        if draw(st.booleans()):
            terms[name] = draw(coeffs)
    if draw(st.booleans()):
        terms[MYPROC_SYM] = draw(st.integers(min_value=-3, max_value=3))
    expr = SymExpr(
        const=const,
        terms=SymExpr._normalize(terms),
    )
    if draw(st.booleans()):
        expr = expr + SymExpr.perm(
            draw(st.integers(min_value=-2, max_value=2))
        ).scale(draw(st.integers(min_value=-3, max_value=3)))
    if draw(st.booleans()):
        expr = expr + SymExpr.procs().multiply(
            SymExpr.symbol(draw(st.sampled_from(NAMES)))
        ).scale(draw(st.integers(min_value=-2, max_value=2)))
    return expr


DOMAINS = {name: VarDomain(0, 5) for name in NAMES}


def evaluate(expr, values, myproc, procs):
    assignment = dict(values)
    assignment[MYPROC_SYM] = myproc
    return expr.substitute(assignment, procs)


assignments = st.fixed_dictionaries(
    {name: st.integers(min_value=0, max_value=5) for name in NAMES}
)


class TestMayBeEqualSoundness:
    @given(
        left=sym_exprs(),
        right=sym_exprs(),
        left_values=assignments,
        right_values=assignments,
        procs=st.integers(min_value=2, max_value=6),
        p=st.integers(min_value=0, max_value=5),
        q=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=400, deadline=None)
    def test_disjoint_claim_never_contradicted(
        self, left, right, left_values, right_values, procs, p, q
    ):
        p %= procs
        q %= procs
        if p == q:
            return
        lhs = evaluate(left, left_values, p, procs)
        rhs = evaluate(right, right_values, q, procs)
        if lhs is None or rhs is None:
            return
        if lhs == rhs:
            # A concrete collision exists: the analysis must say "may".
            assert may_be_equal(left, right, DOMAINS, DOMAINS), (
                f"claimed disjoint but {left} = {right} = {lhs} at "
                f"p={p}, q={q}, PROCS={procs}, "
                f"L={left_values}, R={right_values}"
            )

    @given(
        left=sym_exprs(),
        right=sym_exprs(),
        values_a=assignments,
        values_b=assignments,
        procs=st.integers(min_value=2, max_value=6),
        p=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_processor_soundness(
        self, left, right, values_a, values_b, procs, p
    ):
        p %= procs
        lhs = evaluate(left, values_a, p, procs)
        rhs = evaluate(right, values_b, p, procs)
        if lhs is None or rhs is None:
            return
        if lhs == rhs:
            assert may_be_equal(
                left, right, DOMAINS, DOMAINS, same_processor=True
            )


class TestAlgebraicProperties:
    @given(sym_exprs(), sym_exprs())
    @settings(max_examples=200, deadline=None)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(sym_exprs())
    @settings(max_examples=200, deadline=None)
    def test_self_subtraction_is_zero(self, a):
        assert (a - a).is_constant
        assert (a - a).const == 0

    @given(sym_exprs(), st.integers(min_value=-5, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_scale_distributes(self, a, k):
        assert a.scale(k) + a.scale(-k) == SymExpr.constant(0)

    @given(
        expr=sym_exprs(),
        values=assignments,
        procs=st.integers(min_value=2, max_value=6),
        p=st.integers(min_value=0, max_value=5),
        k=st.integers(min_value=-4, max_value=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_scale_matches_evaluation(self, expr, values, procs, p, k):
        p %= procs
        base = evaluate(expr, values, p, procs)
        scaled = evaluate(expr.scale(k), values, p, procs)
        if base is not None:
            assert scaled == base * k

    @given(
        a=sym_exprs(),
        b=sym_exprs(),
        values=assignments,
        procs=st.integers(min_value=2, max_value=6),
        p=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_addition_matches_evaluation(self, a, b, values, procs, p):
        p %= procs
        va = evaluate(a, values, p, procs)
        vb = evaluate(b, values, p, procs)
        vsum = evaluate(a + b, values, p, procs)
        if va is not None and vb is not None:
            assert vsum == va + vb
