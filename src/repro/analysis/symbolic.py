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

Anything non-affine (division, modulus, products of symbols other than
``PROCS``-scaling, calls, values read from shared memory) makes the form
:data:`OPAQUE`, which conflicts with everything on the same variable.

The feasibility test implemented by :func:`may_be_equal` is *sound in the
conservative direction*: it only answers "disjoint" when the two
accesses provably never collide on distinct processors, for every legal
``PROCS >= 2`` and every iteration-variable assignment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Dict, Iterable, Mapping, Optional, Tuple

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

    def term_map(self) -> Dict[str, int]:
        return dict(self.terms)

    def procs_term_map(self) -> Dict[str, int]:
        return dict(self.procs_terms)

    def perm_map(self) -> Dict[int, int]:
        return dict(self.perm_terms)

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
        terms = self.term_map()
        for sym, coeff in other.terms:
            terms[sym] = terms.get(sym, 0) + coeff
        procs_terms = self.procs_term_map()
        for sym, coeff in other.procs_terms:
            procs_terms[sym] = procs_terms.get(sym, 0) + coeff
        perms = self.perm_map()
        for shift, coeff in other.perm_terms:
            perms[shift] = perms.get(shift, 0) + coeff
        return SymExpr(
            const=self.const + other.const,
            terms=SymExpr._normalize(terms),
            procs_const=self.procs_const + other.procs_const,
            procs_terms=SymExpr._normalize(procs_terms),
            perm_terms=SymExpr._normalize(perms),
        )

    def __neg__(self) -> "SymExpr":
        return SymExpr(
            const=-self.const,
            terms=tuple((sym, -coeff) for sym, coeff in self.terms),
            procs_const=-self.procs_const,
            procs_terms=tuple((sym, -coeff) for sym, coeff in self.procs_terms),
            perm_terms=tuple((s, -coeff) for s, coeff in self.perm_terms),
        )

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
        left_is_procs = (
            self.procs_const != 0
            and not self.terms
            and not self.procs_terms
            and not self.perm_terms
            and self.const == 0
        )
        right_is_procs = (
            other.procs_const != 0
            and not other.terms
            and not other.procs_terms
            and not other.perm_terms
            and other.const == 0
        )
        if left_is_procs and not other.has_procs_part \
                and not other.perm_terms:
            scaled = other.scale(self.procs_const)
            return SymExpr(
                const=0,
                terms=(),
                procs_const=scaled.const,
                procs_terms=scaled.terms,
            )
        if right_is_procs and not self.has_procs_part \
                and not self.perm_terms:
            scaled = self.scale(other.procs_const)
            return SymExpr(
                const=0,
                terms=(),
                procs_const=scaled.const,
                procs_terms=scaled.terms,
            )
        return None

    def rename(self, suffix: str, keep: Iterable[str] = (MYPROC_SYM,)) -> "SymExpr":
        """Renames all symbols apart (except ``keep``) for pairwise tests."""
        kept = set(keep)

        def name(sym: str) -> str:
            return sym if sym in kept else f"{sym}#{suffix}"

        return SymExpr(
            const=self.const,
            terms=tuple((name(sym), coeff) for sym, coeff in self.terms),
            procs_const=self.procs_const,
            procs_terms=tuple(
                (name(sym), coeff) for sym, coeff in self.procs_terms
            ),
            perm_terms=self.perm_terms,
        )

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


def _gcd_all(values: Iterable[int]) -> int:
    result = 0
    for value in values:
        result = gcd(result, abs(value))
    return result


def _linear_feasible_unbounded(coeffs: Dict[str, int], const: int) -> bool:
    """Is ``Σ c·v + const = 0`` solvable with every v ranging over Z?"""
    live = {sym: c for sym, c in coeffs.items() if c != 0}
    if not live:
        return const == 0
    return const % _gcd_all(live.values()) == 0


def _linear_feasible_delta(
    coeffs: Dict[str, int], const: int, delta_sym: str
) -> bool:
    """Feasibility of ``Σ c·v + const = 0`` over Z with ``delta_sym != 0``.

    All variables range over all of Z except ``delta_sym`` which must be
    non-zero.  Sound and complete for these (enlarged) domains.
    """
    c_delta = coeffs.get(delta_sym, 0)
    others = {s: c for s, c in coeffs.items() if s != delta_sym and c != 0}
    if c_delta == 0:
        return _linear_feasible_unbounded(others, const)
    if not others:
        # c_delta * delta = -const with delta != 0.
        return const != 0 and const % c_delta == 0
    g_others = _gcd_all(others.values())
    # Need t != 0 with g_others | (const + c_delta * t).  The congruence
    # c_delta * t = -const (mod g_others) is solvable iff
    # gcd(c_delta, g_others) | const, and when solvable the solution set
    # is periodic, so a non-zero t always exists.
    return const % gcd(c_delta, g_others) == 0


def _enumerate_feasible(
    coeffs: Dict[str, int],
    const: int,
    domains: Dict[str, VarDomain],
    forbid_zero: Optional[str],
) -> Optional[bool]:
    """Exact enumeration when every domain is bounded and small.

    Returns True/False, or None when enumeration is not applicable.
    """
    syms = [s for s, c in coeffs.items() if c != 0]
    total = 1
    for sym in syms:
        domain = domains.get(sym, VarDomain())
        if not domain.is_bounded:
            return None
        total *= domain.size
        if total > _ENUM_LIMIT:
            return None
    ranges = [
        range(domains[sym].lo, domains[sym].hi + 1) for sym in syms
    ]
    for values in itertools.product(*ranges):
        assignment = dict(zip(syms, values))
        if forbid_zero is not None and assignment.get(forbid_zero, 1) == 0:
            continue
        if sum(coeffs[s] * v for s, v in assignment.items()) + const == 0:
            return True
    return False


def _enumerate_solve_delta(
    coeffs: Dict[str, int],
    const: int,
    domains: Dict[str, VarDomain],
    c_delta: int,
) -> Optional[bool]:
    """Exact test with bounded vars plus an unbounded non-zero delta.

    Feasible iff some assignment of the bounded variables leaves a
    residual ``r`` with ``c_delta | r`` and ``r / c_delta != 0``.
    Returns None when any participating variable is unbounded.
    """
    syms = [s for s, c in coeffs.items() if c != 0]
    total = 1
    for sym in syms:
        domain = domains.get(sym, VarDomain())
        if not domain.is_bounded:
            return None
        total *= domain.size
        if total > _ENUM_LIMIT:
            return None
    ranges = [range(domains[sym].lo, domains[sym].hi + 1) for sym in syms]
    for values in itertools.product(*ranges):
        residual = const + sum(
            coeffs[s] * v for s, v in zip(syms, values)
        )
        if residual % c_delta == 0 and residual // c_delta != 0:
            return True
    return False


#: Memo tables for the two entry-point feasibility tests.  The answers
#: are purely mathematical functions of hashable immutable arguments
#: (frozen SymExpr / VarDomain dataclasses), so the caches are safe to
#: share across compilations; they are cleared wholesale if they ever
#: exceed ``_CACHE_LIMIT`` entries.  Real programs repeat a handful of
#: index shapes across hundreds of accesses, making these tests one of
#: the hottest parts of conflict-set construction without the memo.
_CACHE_LIMIT = 1 << 16
_may_equal_cache: Dict[tuple, bool] = {}
_distinct_iter_cache: Dict[tuple, bool] = {}
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
    if left.perm_terms or right.perm_terms:
        answer = _may_be_equal_perm(
            left, right, left_domains, right_domains, same_processor
        )
    else:
        answer = _may_be_equal_affine(
            left, right, left_domains, right_domains, same_processor
        )
    if len(_may_equal_cache) >= _CACHE_LIMIT:
        _may_equal_cache.clear()
    _may_equal_cache[key] = answer
    return answer


def _decompose_proc_term(form: SymExpr):
    """Splits ``form`` into one processor-dependent term plus a rest.

    Returns (shift, coeff, rest) where the processor term is
    ``coeff * (MYPROC + shift) % PROCS`` (a bare ``MYPROC`` is shift 0 —
    ``MYPROC < PROCS`` makes them identical), or None when the form has
    several processor-dependent terms or a PROCS part (conservative).
    """
    base = form.term_map()
    my_coeff = base.pop(MYPROC_SYM, 0)
    if form.has_procs_part:
        return None
    proc_terms = []
    if my_coeff:
        proc_terms.append((0, my_coeff))
    proc_terms.extend(form.perm_terms)
    if len(proc_terms) > 1:
        return None
    shift, coeff = proc_terms[0] if proc_terms else (0, 0)
    rest = SymExpr(
        const=form.const, terms=SymExpr._normalize(base)
    )
    return shift, coeff, rest


def _may_be_equal_perm(
    left: SymExpr,
    right: SymExpr,
    left_domains: Optional[Mapping[str, VarDomain]],
    right_domains: Optional[Mapping[str, VarDomain]],
    same_processor: bool,
) -> bool:
    """Collision test when permutation terms are involved.

    The key fact: ``(MYPROC + c) % PROCS`` is a *bijection* of the
    processor id, so for a common shift distinct processors yield
    distinct values.  Distinct shifts prove nothing on their own —
    ``PROCS`` may divide the shift difference (e.g. shifts 0 and 2 with
    two processors), so those cases admit both behaviors.
    """
    decomposed_l = _decompose_proc_term(left)
    decomposed_r = _decompose_proc_term(right)
    if decomposed_l is None or decomposed_r is None:
        return True
    shift_l, coeff_l, rest_l = decomposed_l
    shift_r, coeff_r, rest_r = decomposed_r

    my = SymExpr.symbol(MYPROC_SYM)

    if coeff_l and coeff_r:
        left2 = rest_l + my.scale(coeff_l)
        right2 = rest_r + my.scale(coeff_r)
        if same_processor:
            if shift_l == shift_r:
                # Same shift on the same processor: identical value —
                # MYPROC cancels like a shared symbol.
                return _may_be_equal_affine(
                    left2, right2, left_domains, right_domains, True
                )
            # Distinct shifts on one processor give distinct values
            # only when PROCS does not divide the shift difference.  A
            # difference of +-1 is safe (no PROCS >= 2 divides it); any
            # larger difference is divided by itself, so for unknown
            # PROCS both the "values differ" (p != q-like) and "values
            # equal" behaviors must be admitted.
            if coeff_l == coeff_r:
                differ = _may_be_equal_affine(
                    left2, right2, left_domains, right_domains, False
                )
                if abs(shift_l - shift_r) == 1:
                    return differ
                return differ or _may_be_equal_affine(
                    left2, right2, left_domains, right_domains, True
                )
            return True
        if shift_l == shift_r:
            # Bijection: p != q  =>  perm values differ.
            return _may_be_equal_affine(
                left2, right2, left_domains, right_domains, False
            )
        # Different shifts across processors: the values may or may not
        # coincide — allow both.
        return _may_be_equal_affine(
            left2, right2, left_domains, right_domains, False
        ) or _may_be_equal_affine(
            left2, right2, left_domains, right_domains, True
        )

    # At most one side is processor-dependent: replace its perm value by
    # a fresh non-negative symbol (its [0, PROCS) range is unbounded
    # above for the purposes of a sound disjointness claim).
    left_domains = dict(left_domains or {})
    right_domains = dict(right_domains or {})
    left2, right2 = rest_l, rest_r
    if coeff_l:
        left2 = rest_l + SymExpr.symbol("#perm").scale(coeff_l)
        left_domains["#perm"] = VarDomain(lo=0)
    if coeff_r:
        right2 = rest_r + SymExpr.symbol("#perm").scale(coeff_r)
        right_domains["#perm"] = VarDomain(lo=0)
    return _may_be_equal_affine(
        left2, right2, left_domains, right_domains, True
    )


def _may_be_equal_affine(
    left: SymExpr,
    right: SymExpr,
    left_domains: Optional[Mapping[str, VarDomain]] = None,
    right_domains: Optional[Mapping[str, VarDomain]] = None,
    same_processor: bool = False,
) -> bool:
    """The affine-core feasibility test (no permutation terms)."""

    left_domains = dict(left_domains or {})
    right_domains = dict(right_domains or {})

    # MYPROC inside a PROCS-scaled term: give up (conservative).
    if dict(left.procs_terms).get(MYPROC_SYM, 0) or dict(
        right.procs_terms
    ).get(MYPROC_SYM, 0):
        return True

    # The left side runs on processor p, the right on q: split the
    # MYPROC coefficients out per side before differencing (they must
    # NOT cancel — p and q are different variables).
    c_left = dict(left.terms).get(MYPROC_SYM, 0)
    c_right = dict(right.terms).get(MYPROC_SYM, 0)

    def _without_myproc(form: SymExpr) -> SymExpr:
        return SymExpr(
            const=form.const,
            terms=tuple(
                (s, c) for s, c in form.terms if s != MYPROC_SYM
            ),
            procs_const=form.procs_const,
            procs_terms=form.procs_terms,
        )

    left_r = _without_myproc(left).rename("L")
    right_r = _without_myproc(right).rename("R")
    domains: Dict[str, VarDomain] = {}
    for sym, dom in left_domains.items():
        domains[f"{sym}#L"] = dom
    for sym, dom in right_domains.items():
        domains[f"{sym}#R"] = dom

    diff = left_r - right_r

    base = diff.term_map()
    procs_part = diff.procs_term_map()
    procs_const = diff.procs_const

    if same_processor:
        # p == q = s: contribution (c_left - c_right) * s, s in [0, PROCS).
        delta_sym = None
        base_coeffs = dict(base)
        if c_left != c_right:
            base_coeffs["#proc"] = c_left - c_right
            domains["#proc"] = VarDomain(lo=0)
    else:
        # Substitute p = q + delta (delta != 0, q = s >= 0):
        # c_left*p - c_right*q = c_left*delta + (c_left - c_right)*s.
        base_coeffs = dict(base)
        if c_left != c_right:
            base_coeffs["#proc"] = c_left - c_right
            domains["#proc"] = VarDomain(lo=0)
        delta_sym = "#delta" if c_left != 0 else None
        if delta_sym is not None:
            base_coeffs[delta_sym] = c_left
        if (
            not base_coeffs
            and not procs_part
            and procs_const == 0
        ):
            # Indices are constants: any two distinct processors collide
            # iff the constant difference is zero.
            return diff.const == 0

    has_procs = procs_const != 0 or any(c != 0 for c in procs_part.values())
    if has_procs:
        # diff = PROCS*A + B.  Sound special case: B == c*delta with
        # |c| == 1 and no constant — then B = +-(p-q) in (-PROCS, PROCS),
        # so diff == 0 forces p == q: disjoint.
        non_delta = {s: c for s, c in base_coeffs.items()
                     if s != delta_sym and c != 0}
        if (
            delta_sym is not None
            and not non_delta
            and diff.const == 0
            and abs(base_coeffs.get(delta_sym, 0)) == 1
        ):
            return False
        return True  # anything else with a PROCS part: conservative

    # Pure base part.  Try exact bounded enumeration first.
    if delta_sym is not None and delta_sym in base_coeffs:
        # delta = p - q with p, q in [0, PROCS); PROCS is unbounded
        # above, so delta ranges over all non-zero integers.  Enumerate
        # the bounded variables and solve for delta: the residual r must
        # satisfy c_delta * delta = -r with integer delta != 0.
        exact = _enumerate_solve_delta(
            {s: c for s, c in base_coeffs.items()
             if s != delta_sym and c != 0},
            diff.const,
            domains,
            base_coeffs[delta_sym],
        )
    else:
        exact = _enumerate_feasible(
            {s: c for s, c in base_coeffs.items() if c != 0},
            diff.const,
            domains,
            forbid_zero=None,
        )
    if exact is not None:
        return exact

    # Enlarged-domain test (sound for disjointness claims).
    if delta_sym is not None:
        return _linear_feasible_delta(base_coeffs, diff.const, delta_sym)
    return _linear_feasible_unbounded(
        {s: c for s, c in base_coeffs.items() if c != 0}, diff.const
    )


def distinct_iterations_may_collide(
    forms: Tuple[SymExpr, ...],
    loop_domains: Mapping[str, VarDomain],
) -> bool:
    """Memoized front end of :func:`_distinct_iterations_may_collide`."""
    global _cache_hits, _cache_misses
    key = (forms, _norm_domains(loop_domains))
    cached = _distinct_iter_cache.get(key)
    if cached is not None:
        _cache_hits += 1
        return cached
    _cache_misses += 1
    answer = _distinct_iterations_may_collide(forms, loop_domains)
    if len(_distinct_iter_cache) >= _CACHE_LIMIT:
        _distinct_iter_cache.clear()
    _distinct_iter_cache[key] = answer
    return answer


def _distinct_iterations_may_collide(
    forms: Tuple[SymExpr, ...],
    loop_domains: Mapping[str, VarDomain],
) -> bool:
    """Can two *different iterations* of one access collide (same proc)?

    Used for loop-carried self-dependences.  The two dynamic instances
    run on the same processor (MYPROC and permutation terms cancel) and
    differ in at least one *loop variable*; other symbols (locals the
    program recomputes) may take any values — including equal ones —
    between the two iterations.  Writing ``d_v = v_first - v_second``,
    the index tuple collides iff some difference vector with a non-zero
    loop-variable part zeroes every dimension (with the PROCS-scaled
    parts handled per-dimension: ``base + PROCS*procs == 0`` needs
    ``PROCS = -base/procs`` to be a legal processor count, or both
    parts zero).
    """
    loop_vars = set(loop_domains)
    base_rows: list = []
    procs_rows: list = []
    for form in forms:
        if form is None:
            return True
        base: Dict[str, int] = {}
        procs_part: Dict[str, int] = {}
        for sym, coeff in form.terms:
            if sym == MYPROC_SYM:
                continue  # same processor: cancels
            base[sym] = coeff
        for sym, coeff in form.procs_terms:
            if sym == MYPROC_SYM:
                continue
            procs_part[sym] = coeff
        # perm terms and constants cancel between the two instances.
        base_rows.append(base)
        procs_rows.append(procs_part)

    active = sorted(
        {s for row in base_rows for s in row}
        | {s for row in procs_rows for s in row}
    )
    active_loop = [s for s in active if s in loop_vars]
    active_free = [s for s in active if s not in loop_vars]
    if not active_loop:
        # The index does not depend on the loop variables: distinct
        # iterations can (and for constant indices, must) repeat it.
        return True

    # An enclosing loop variable that does NOT appear in the index can
    # absorb the "different iteration" requirement on its own: two
    # instances differing only in it touch the *same* element.  Any
    # such variable with more than one possible value forces a may-
    # collide answer.
    for sym, domain in loop_domains.items():
        if sym in active:
            continue
        if not domain.is_bounded or (domain.size or 2) > 1:
            return True

    # Rank shortcut: when each dimension is purely base or purely
    # PROCS-scaled, a collision needs a kernel vector with a non-zero
    # loop part; that is impossible exactly when the loop columns are
    # independent of each other and of the free columns — i.e.
    # rank([loop | free]) == #loop + rank(free).  Sound for unbounded
    # loops (e.g. triangular ``for (i = k; ...)``).
    if all(
        not (base and procs)
        for base, procs in zip(base_rows, procs_rows)
    ):
        matrix = []
        for base, procs in zip(base_rows, procs_rows):
            row_map = base if base else procs
            matrix.append(
                [row_map.get(s, 0) for s in active_loop]
                + [row_map.get(s, 0) for s in active_free]
            )
        free_matrix = [row[len(active_loop):] for row in matrix]
        full_rank = _rational_rank(matrix)
        free_rank = _rational_rank(free_matrix) if active_free else 0
        if full_rank == len(active_loop) + free_rank:
            return False

    # Exact enumeration over bounded loop-difference vectors; free
    # symbols absorb any residual their gcd divides.
    spans = []
    total = 1
    for sym in active_loop:
        domain = loop_domains.get(sym, VarDomain())
        if not domain.is_bounded:
            return True  # unbounded loop: conservative
        span = domain.hi - domain.lo
        spans.append(range(-span, span + 1))
        total *= 2 * span + 1
        if total > _ENUM_LIMIT:
            return True  # too large to enumerate: conservative

    for d in itertools.product(*spans):
        if all(x == 0 for x in d):
            continue
        collides = True
        for base, procs_part in zip(base_rows, procs_rows):
            b = sum(base.get(s, 0) * dv for s, dv in zip(active_loop, d))
            p = sum(
                procs_part.get(s, 0) * dv
                for s, dv in zip(active_loop, d)
            )
            free_base = [base.get(s, 0) for s in active_free]
            free_procs = [procs_part.get(s, 0) for s in active_free]
            if any(free_procs) or (p != 0 and any(free_base)):
                # Mixed free/PROCS residuals: be conservative for this
                # dimension (assume it can be zeroed).
                continue
            if p == 0:
                g = _gcd_all(free_base)
                if g == 0:
                    if b != 0:
                        collides = False
                        break
                elif b % g != 0:
                    collides = False
                    break
            else:
                # Need PROCS = -b / p, an integer >= 2.
                if b % p != 0 or -(b // p) < 2:
                    collides = False
                    break
        if collides:
            return True
    return False


def _rational_rank(matrix) -> int:
    """Rank over the rationals (exact, via Fraction elimination)."""
    from fractions import Fraction

    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        for r in range(pivot_row + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [
                    a - factor * b for a, b in zip(rows[r], rows[pivot_row])
                ]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank
