"""Symbolic (affine) index expressions for conflict analysis.

The conflict set ``C`` of the paper contains all pairs of shared accesses
that *could* touch the same location from two different processors.  For
distributed arrays this is where precision matters: ``A[MYPROC]`` written
by every processor never self-conflicts (distinct processors write
distinct elements), whereas ``A[(MYPROC+1) % PROCS]`` read against an
``A[MYPROC]`` write genuinely conflicts.

We represent an index expression as an *extended affine form*

    value = PROCS * (procs_part) + base_part

where each part is ``const + Σ coeff·symbol`` over integer symbols.
Symbols name the values of local scalar variables at the time of the
access (resolved to unique names by the lowering pass, so shadowing is
impossible), with two distinguished symbols:

* ``MYPROC`` — the executing processor id, in ``[0, PROCS)``;
* loop variables — carry a static range when the enclosing loop is a
  recognized counted loop.

Anything non-affine (division, a modulus other than ``(MYPROC + c) %
PROCS``, products of symbols other than ``PROCS``-scaling, calls, values
read from shared memory) makes the form :data:`OPAQUE`, which conflicts
with everything on the same variable.

:func:`may_be_equal` builds ``left - right == 0`` as one integer system
(:func:`_system`) and one solver decides it (:func:`_solvable`).  It is
*sound in the conservative direction*: it only answers "disjoint" when
the two accesses provably never collide on distinct processors, for
every legal ``PROCS >= 2`` and every iteration-variable assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, Mapping, Optional, Tuple

#: The distinguished symbol for the executing processor's id.
MYPROC_SYM = "MYPROC"

#: Exact enumeration budget for the bounded-domain feasibility check.
_ENUM_LIMIT = 100_000


@dataclass(frozen=True)
class SymExpr:
    """An extended affine integer expression (see module docstring).

    ``terms`` maps symbol -> coefficient for the base part;
    ``procs_terms`` maps symbol -> coefficient for the PROCS-scaled part;
    ``procs_const`` is the coefficient of a bare ``PROCS`` term;
    ``perm_terms`` maps shift ``c`` -> coefficient for *permutation*
    terms ``(MYPROC + c) % PROCS`` — the SPMD neighbor idiom.  A
    permutation term is a bijection of the processor id, which is what
    lets ``A[(MYPROC+1) % PROCS]`` writes be proved disjoint across
    processors.
    """

    const: int = 0
    terms: Tuple[Tuple[str, int], ...] = ()
    procs_const: int = 0
    procs_terms: Tuple[Tuple[str, int], ...] = ()
    perm_terms: Tuple[Tuple[int, int], ...] = ()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: int) -> "SymExpr":
        return SymExpr(const=value)

    @staticmethod
    def symbol(name: str) -> "SymExpr":
        return SymExpr(terms=((name, 1),))

    @staticmethod
    def procs() -> "SymExpr":
        return SymExpr(procs_const=1)

    @staticmethod
    def perm(shift: int) -> "SymExpr":
        """The permutation term ``(MYPROC + shift) % PROCS``."""
        return SymExpr(perm_terms=((shift, 1),))

    @staticmethod
    def _normalize(mapping: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
        return tuple(
            sorted((sym, coeff) for sym, coeff in mapping.items() if coeff != 0)
        )

    # -- views ---------------------------------------------------------------

    @property
    def has_procs_part(self) -> bool:
        return self.procs_const != 0 or bool(self.procs_terms)

    @property
    def is_constant(self) -> bool:
        return (
            not self.terms
            and not self.has_procs_part
            and not self.perm_terms
        )

    def symbols(self) -> Tuple[str, ...]:
        names = {sym for sym, _ in self.terms}
        names.update(sym for sym, _ in self.procs_terms)
        return tuple(sorted(names))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "SymExpr") -> "SymExpr":
        return SymExpr(
            const=self.const + other.const,
            terms=_merge(self.terms, other.terms),
            procs_const=self.procs_const + other.procs_const,
            procs_terms=_merge(self.procs_terms, other.procs_terms),
            perm_terms=_merge(self.perm_terms, other.perm_terms),
        )

    def __neg__(self) -> "SymExpr":
        return self.scale(-1)

    def __sub__(self, other: "SymExpr") -> "SymExpr":
        return self + (-other)

    def scale(self, factor: int) -> "SymExpr":
        return SymExpr(
            const=self.const * factor,
            terms=SymExpr._normalize(
                {sym: coeff * factor for sym, coeff in self.terms}
            ),
            procs_const=self.procs_const * factor,
            procs_terms=SymExpr._normalize(
                {sym: coeff * factor for sym, coeff in self.procs_terms}
            ),
            perm_terms=SymExpr._normalize(
                {s: coeff * factor for s, coeff in self.perm_terms}
            ),
        )

    def multiply(self, other: "SymExpr") -> Optional["SymExpr"]:
        """Symbolic multiplication; None when the product is non-affine.

        Supported shapes: constant * anything, and PROCS * (affine
        without a PROCS part) — the latter is what block-cyclic index
        arithmetic like ``i * PROCS + MYPROC`` produces.
        """
        if self.is_constant:
            return other.scale(self.const)
        if other.is_constant:
            return self.scale(other.const)
        for procs, form in ((self, other), (other, self)):
            if procs.procs_const != 0 \
                    and procs == SymExpr(procs_const=procs.procs_const) \
                    and not form.has_procs_part and not form.perm_terms:
                scaled = form.scale(procs.procs_const)
                return SymExpr(procs_const=scaled.const,
                               procs_terms=scaled.terms)
        return None

    def modulo(self, other: "SymExpr") -> Optional["SymExpr"]:
        """``self % other``; None unless it folds or is a permutation term.

        Constants fold to C's remainder, which takes the dividend's sign,
        as the runtime computes it.  ``(MYPROC + c + k·PROCS) % PROCS`` is
        ``perm(c)``: the remainder drops the PROCS multiple for the
        non-negative operand values of well-formed index code.
        ``perm(c) % PROCS`` is the perm itself.
        """
        if self.is_constant and other.is_constant and other.const != 0:
            a, b = self.const, other.const
            return SymExpr.constant(a - int(a / b) * b)
        if other != SymExpr.procs():
            return None
        if self.terms == ((MYPROC_SYM, 1),) and not self.procs_terms \
                and not self.perm_terms:
            return SymExpr.perm(self.const)
        if len(self.perm_terms) == 1 \
                and self == SymExpr.perm(self.perm_terms[0][0]):
            return self
        return None

    def rename_map(self, mapping: Mapping[str, str]) -> "SymExpr":
        """Renames symbols via an explicit map (used by the inliner)."""

        def name(sym: str) -> str:
            return mapping.get(sym, sym)

        return SymExpr(
            const=self.const,
            terms=SymExpr._normalize(
                {name(sym): coeff for sym, coeff in self.terms}
            ),
            procs_const=self.procs_const,
            procs_terms=SymExpr._normalize(
                {name(sym): coeff for sym, coeff in self.procs_terms}
            ),
            perm_terms=self.perm_terms,
        )

    def substitute(self, assignment: Mapping[str, int],
                   procs: int) -> Optional[int]:
        """Evaluates the form under a full assignment; None if incomplete."""
        total = self.const + self.procs_const * procs
        for shift, coeff in self.perm_terms:
            myproc = assignment.get(MYPROC_SYM)
            if myproc is None:
                return None
            total += coeff * ((myproc + shift) % procs)
        for sym, coeff in self.terms:
            if sym not in assignment:
                return None
            total += coeff * assignment[sym]
        for sym, coeff in self.procs_terms:
            if sym not in assignment:
                return None
            total += coeff * assignment[sym] * procs
        return total

    def __str__(self) -> str:
        parts = []
        if self.const or (not self.terms and not self.has_procs_part):
            parts.append(str(self.const))
        for sym, coeff in self.terms:
            parts.append(f"{coeff}*{sym}")
        if self.procs_const:
            parts.append(f"{self.procs_const}*PROCS")
        for sym, coeff in self.procs_terms:
            parts.append(f"{coeff}*{sym}*PROCS")
        for shift, coeff in self.perm_terms:
            parts.append(f"{coeff}*perm(MYPROC+{shift})")
        return " + ".join(parts)


def _merge(a: Tuple[Tuple, ...], b: Tuple[Tuple, ...]) -> Tuple[Tuple, ...]:
    """The sum of two (key, coeff) term tuples, normalized."""
    merged = dict(a)
    for key, coeff in b:
        merged[key] = merged.get(key, 0) + coeff
    return SymExpr._normalize(merged)


#: Sentinel for non-affine index expressions.
OPAQUE = None
MaybeSymExpr = Optional[SymExpr]


@dataclass(frozen=True)
class VarDomain:
    """The integer domain of a symbol in a feasibility query.

    ``lo``/``hi`` are inclusive bounds; ``None`` means unbounded on that
    side.
    """

    lo: Optional[int] = None
    hi: Optional[int] = None

    @property
    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def size(self) -> Optional[int]:
        if not self.is_bounded:
            return None
        return max(0, self.hi - self.lo + 1)


#: Memo table for :func:`may_be_equal`.  The answers are purely
#: mathematical functions of hashable immutable arguments (frozen
#: SymExpr / VarDomain dataclasses), so the cache is safe to share
#: across compilations; it is cleared wholesale if it ever exceeds
#: ``_CACHE_LIMIT`` entries.  Real programs repeat a handful of index
#: shapes across hundreds of accesses, making this test one of the
#: hottest parts of conflict-set construction without the memo.
_CACHE_LIMIT = 1 << 16
_may_equal_cache: Dict[tuple, bool] = {}
_cache_hits = 0
_cache_misses = 0


def cache_counters() -> Dict[str, int]:
    """Cumulative hit/miss counters, for the pass profiler."""
    return {
        "symbolic.cache_hits": _cache_hits,
        "symbolic.cache_misses": _cache_misses,
    }


def _norm_domains(
    domains: Optional[Mapping[str, VarDomain]],
) -> Tuple[Tuple[str, VarDomain], ...]:
    if not domains:
        return ()
    return tuple(sorted(domains.items()))


def may_be_equal(
    left: MaybeSymExpr,
    right: MaybeSymExpr,
    left_domains: Optional[Mapping[str, VarDomain]] = None,
    right_domains: Optional[Mapping[str, VarDomain]] = None,
    same_processor: bool = False,
) -> bool:
    """Can the two index expressions denote the same element?

    ``left`` is evaluated on processor ``p`` and ``right`` on processor
    ``q``; unless ``same_processor`` is set, the test requires ``p != q``
    (the conflict-set definition only relates accesses *issued by
    different processors*).  Loop-variable domains restrict iteration
    symbols; all other symbols are unconstrained.

    Returns True ("may collide") unless disjointness is *proved*.
    """
    global _cache_hits, _cache_misses
    if left is OPAQUE or right is OPAQUE:
        return True
    key = (
        left,
        right,
        _norm_domains(left_domains),
        _norm_domains(right_domains),
        same_processor,
    )
    cached = _may_equal_cache.get(key)
    if cached is not None:
        _cache_hits += 1
        return cached
    _cache_misses += 1
    system = _system(
        left, right, left_domains or {}, right_domains or {}, same_processor
    )
    answer = system is None or _solvable(*system)
    if len(_may_equal_cache) >= _CACHE_LIMIT:
        _may_equal_cache.clear()
    _may_equal_cache[key] = answer
    return answer


def _system(
    left: SymExpr,
    right: SymExpr,
    left_domains: Mapping[str, VarDomain],
    right_domains: Mapping[str, VarDomain],
    same_processor: bool,
) -> Optional[tuple]:
    """``left - right == 0`` as one integer system; None for "may collide".

    Returns ``(coeffs, const, domains, nonzero)`` for
    ``Σ coeffs[v]·v + const == 0``.  Symbols are renamed apart per side
    as ``(side, symbol)`` and keep their side's domain.

    Each side has at most one *processor term* ``c·((MYPROC + s) %
    PROCS)`` (two or more may collide); a bare ``MYPROC`` is shift 0,
    since ``MYPROC < PROCS``.  Its value in ``[0, PROCS)``, PROCS
    unbounded, becomes a variable free over Z, and the two sides'
    variables ``x_l`` / ``x_r`` are related in one of three ways:

    * *equal* — one shift on one processor: ``x_l = x_r``;
    * *different* — one shift on two processors (a shift is a bijection
      of the processor id), or shifts one apart on one processor (no
      ``PROCS >= 2`` divides 1): ``x_l = x_r + d`` with ``d != 0``;
    * *unrelated* — anything else; ``PROCS`` may divide a larger shift
      difference, so the values may or may not coincide.
    """
    proc_terms = []
    for form in (left, right):
        my_coeff = dict(form.terms).get(MYPROC_SYM, 0)
        terms = list(form.perm_terms) + ([(0, my_coeff)] if my_coeff else [])
        if len(terms) > 1:
            return None
        proc_terms.append(terms[0] if terms else (0, 0))
    (shift_l, c_l), (shift_r, c_r) = proc_terms
    coeffs: Dict[object, int] = {}
    domains: Dict[object, VarDomain] = {}
    for side, form, sign, side_domains in (
        ("L", left, 1, left_domains), ("R", right, -1, right_domains)
    ):
        for sym, coeff in form.terms:
            if sym != MYPROC_SYM:
                coeffs[side, sym] = sign * coeff
                if sym in side_domains:
                    domains[side, sym] = side_domains[sym]
    const = left.const - right.const
    nonzero = None
    both = c_l != 0 and c_r != 0
    if both and same_processor and shift_l == shift_r:
        coeffs["x"] = c_l - c_r
    elif both and (shift_l == shift_r
                   or same_processor and abs(shift_l - shift_r) == 1):
        # c_l·x_l - c_r·x_r with x_l = x_r + d.
        coeffs["d"], coeffs["x"], nonzero = c_l, c_l - c_r, "d"
    else:
        coeffs["x_l"], coeffs["x_r"] = c_l, -c_r
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    if left.procs_terms or right.procs_terms \
            or left.procs_const != right.procs_const:
        # PROCS·A + B == 0.  With B = ±d, 0 < |d| < PROCS, PROCS | B
        # forces B == 0: the system without the PROCS part.  Any other
        # B may collide.
        if const != 0 or coeffs not in ({"d": 1}, {"d": -1}):
            return None
    return coeffs, const, domains, nonzero


def _solvable(
    coeffs: Mapping[object, int],
    const: int,
    domains: Mapping[object, VarDomain],
    nonzero: Optional[object],
) -> bool:
    """Has ``Σ coeffs[v]·v + const == 0`` an integer solution?

    Bounded variables are enumerated exactly while their box has at most
    ``_ENUM_LIMIT`` points.  Every other variable ranges over Z, a sound
    enlargement, except ``nonzero``, which ranges over the non-zero
    integers; the residual each box point leaves is decided by one gcd
    test.
    """
    bounded = sorted(
        (v for v in coeffs if v in domains and domains[v].is_bounded),
        key=lambda v: domains[v].size,
    )
    box = 1
    residuals = {const}
    free = dict(coeffs)
    for var in bounded:
        box *= domains[var].size
        if box > _ENUM_LIMIT:
            break
        coeff = free.pop(var)
        values = range(domains[var].lo, domains[var].hi + 1)
        residuals = {r + coeff * v for r in residuals for v in values}
    c_nonzero = free.pop(nonzero, 0)
    g = 0
    for coeff in free.values():
        g = gcd(g, coeff)
    if c_nonzero and not g:
        # c·d == -r with d != 0.
        return any(r != 0 and r % c_nonzero == 0 for r in residuals)
    # Beside other free variables the solution set in d is periodic, so
    # a non-zero d exists whenever any solution does.
    g = gcd(g, c_nonzero)
    return any((r % g if g else r) == 0 for r in residuals)
