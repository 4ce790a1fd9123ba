"""A decided soundness check for :func:`may_be_equal` over a grid.

The hypothesis tests in ``test_prop_symbolic.py`` sample index pairs
with one all-bounded domain map.  This test enumerates a grid instead
and checks *every* "disjoint" answer on it against brute force: each
PROCS in ``2..max_procs``, each processor pair, each value of each loop
symbol.  A side is ``proc + a·i + const`` (or ``a·i·PROCS`` in place of
``a·i``), where ``proc`` is no processor term, ``c·MYPROC`` or
``c·((MYPROC + s) % PROCS)``, and the loop symbol ``i`` — one name on
both sides, renamed apart by the analysis — has its own domain per
side: bounded, one point, empty, ``lo`` only or unbounded.  Unbounded
symbols are searched over a window, so brute force under-approximates
the collisions; any collision it finds refutes a "disjoint" answer.

``REPRO_INDEX_GRID`` selects the grid size: ``tier1`` (the default) or
``wide`` (PROCS up to 16, larger coefficients; its own CI step).
"""

import itertools
import os

from repro.analysis import symbolic
from repro.analysis.symbolic import MYPROC_SYM, SymExpr, VarDomain

GRIDS = {
    "tier1": dict(max_procs=8, proc_coeffs=(1, 2), shifts=(0, 1, 2),
                  loop_coeffs=(1, -2), procs_coeffs=(1,),
                  consts=(-1, 0, 1, 2), window=4),
    "wide": dict(max_procs=16, proc_coeffs=(-2, 1, 3), shifts=(0, 1, 2, 3),
                 loop_coeffs=(1, -2, 3), procs_coeffs=(1, -2),
                 consts=(-3, -1, 0, 1, 2, 4), window=6),
}

DOMAINS = {
    "bounded": VarDomain(0, 3),
    "point": VarDomain(2, 2),
    "empty": VarDomain(3, 1),
    "lo-only": VarDomain(lo=0),
    "unbounded": None,
}


def _grid():
    name = os.environ.get("REPRO_INDEX_GRID", "tier1")
    if name not in GRIDS:
        raise ValueError(f"REPRO_INDEX_GRID must be one of {sorted(GRIDS)}")
    return GRIDS[name]


def _sides(grid, const):
    """Every (form, domains) side of the grid with constant ``const``."""
    my = SymExpr.symbol(MYPROC_SYM)
    procs = [SymExpr()]
    for coeff in grid["proc_coeffs"]:
        procs.append(my.scale(coeff))
        procs.extend(SymExpr.perm(s).scale(coeff) for s in grid["shifts"])
    loop = SymExpr.symbol("i")
    terms = [loop.scale(c) for c in grid["loop_coeffs"]]
    terms += [loop.scale(c).multiply(SymExpr.procs())
              for c in grid["procs_coeffs"]]
    loops = [(SymExpr(), None)]
    loops += [(term, dom) for term in terms for dom in DOMAINS]
    for proc, (term, dom) in itertools.product(procs, loops):
        form = proc + term + SymExpr.constant(const)
        domain = DOMAINS.get(dom)
        yield form, {} if domain is None else {"i": domain}


def _values(form, domains, grid):
    """values[P]: value -> bitmask of the processors ``form`` takes it on."""
    window = grid["window"]
    domain = domains.get("i", VarDomain())
    lo = -window if domain.lo is None else domain.lo
    hi = lo + 2 * window if domain.hi is None else domain.hi
    loop_values = range(lo, hi + 1) if "i" in form.symbols() else (0,)
    values = {}
    for procs in range(2, grid["max_procs"] + 1):
        masks = values[procs] = {}
        for p, i in itertools.product(range(procs), loop_values):
            value = form.substitute({MYPROC_SYM: p, "i": i}, procs)
            masks[value] = masks.get(value, 0) | 1 << p
    return values


def _collision(left_values, right_values, same_processor):
    """The first PROCS and value both sides take, on one processor if
    ``same_processor`` and on two otherwise; None if there is none."""
    for procs, lefts in left_values.items():
        rights = right_values[procs]
        for value in lefts.keys() & rights.keys():
            left, right = lefts[value], rights[value]
            if same_processor:
                hit = left & right
            else:  # not both the same single processor
                hit = left != right or left & (left - 1)
            if hit:
                return procs, value
    return None


def test_every_disjoint_answer_is_confirmed_by_brute_force(monkeypatch):
    grid = _grid()
    # Decide every query afresh rather than from earlier tests' memo.
    monkeypatch.setattr(symbolic, "_may_equal_cache", {})
    rights = [(form, dom, _values(form, dom, grid))
              for form, dom in _sides(grid, 0)]
    disjoint = refuted = 0
    examples = []
    for const in grid["consts"]:
        for left, left_dom in _sides(grid, const):
            left_values = None
            for right, right_dom, right_values in rights:
                for same in (False, True):
                    if symbolic.may_be_equal(
                            left, right, left_dom, right_dom, same):
                        continue
                    disjoint += 1
                    if left_values is None:
                        left_values = _values(left, left_dom, grid)
                    witness = _collision(left_values, right_values, same)
                    if witness is not None:
                        refuted += 1
                        examples.append(
                            (str(left), left_dom, str(right), right_dom,
                             same, witness))
    assert refuted == 0, f"{refuted} refuted, e.g. {examples[:5]}"
    assert disjoint > 0
