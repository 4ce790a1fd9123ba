"""Engine-equivalence property tests.

The performance overhaul (closure memoization, mask-grouped exclusion
checks, t-row reuse across engines, sparse candidate iteration) must be
*purely* a performance change: this module re-implements the seed
engine's algorithm verbatim — per-source BFS, per-pair excluded BFS, no
caches — and checks that the optimized :class:`BackPathEngine` produces
byte-identical delay sets on randomized programs, both standalone
(``AnalysisLevel.SAS``) and through the whole §5 driver
(``AnalysisLevel.SYNC``).  Tiny programs are additionally checked
against the exponential Definition-1 oracle.
"""

from __future__ import annotations

import random
from typing import Optional, Set, Tuple

import pytest

from repro.analysis import delays as delays_mod
from repro.analysis.accesses import AccessSet
from repro.analysis.conflicts import ConflictSet
from repro.analysis.cycle.spmd import BackPathEngine, _iter_bits
from repro.analysis.delays import AnalysisLevel, analyze_function
from repro.ir.symrefine import refine_index_metadata
from tests.analysis.general_backpath import GeneralBackPathFinder
from tests.helpers import inlined
from repro.fuzz.progen import generate


# -- the seed implementation, reproduced without any caching ---------------


class SeedEngine:
    """The pre-optimization BackPathEngine, kept as a test oracle.

    One fresh bitset closure per source, one fresh excluded BFS per
    surviving pair, masked visit-continuation rows recomputed at every
    frontier occurrence — exactly the seed's behavior and cost model.
    Interface-compatible with :class:`BackPathEngine` as far as the
    delay-set driver requires.
    """

    def __init__(self, accesses, conflicts):
        self._accesses = accesses
        self._conflicts = conflicts
        n = len(accesses)
        self._n = n
        self._pstar_self = [
            accesses.p_row(a) | (1 << a.index) for a in accesses
        ]
        self._c_rows = [conflicts.row_by_index(i) for i in range(n)]
        self._t_rows = []
        for x in range(n):
            row = 0
            for y in _iter_bits(self._pstar_self[x]):
                row |= self._c_rows[y]
            self._t_rows.append(row)
        # The optimized driver reads engine.stats for the profiler.
        self.stats = BackPathEngine(accesses, conflicts).stats

    def _closure_from(self, v_index: int, excluded: int = 0):
        allowed = ~excluded
        start = self._c_rows[v_index] & allowed
        closure = 0
        frontier = start
        final = 0
        while frontier:
            closure |= frontier
            next_frontier = 0
            for x in _iter_bits(frontier):
                if excluded:
                    t_row = 0
                    for y in _iter_bits(self._pstar_self[x] & allowed):
                        t_row |= self._c_rows[y]
                else:
                    t_row = self._t_rows[x]
                final |= t_row
                next_frontier |= t_row & allowed & ~closure
            frontier = next_frontier
        return closure, final

    def back_path_targets(self, v, excluded: int = 0) -> int:
        _closure, final = self._closure_from(v.index, excluded)
        return final

    def has_back_path(self, u, v, excluded: int = 0) -> bool:
        return bool(self.back_path_targets(v, excluded) >> u.index & 1)

    def delay_set(self, pair_filter=None, excluded_for=None):
        delays: Set[Tuple[int, int]] = set()
        accesses = list(self._accesses)
        for v in accesses:
            targets = self.back_path_targets(v)
            if not targets:
                continue
            for u in accesses:
                if not targets >> u.index & 1:
                    continue
                if not self._accesses.program_order(u, v):
                    continue
                if pair_filter is not None and not pair_filter(u, v):
                    continue
                if excluded_for is not None:
                    excluded = excluded_for(u, v)
                    if excluded and not self.has_back_path(
                        u, v, excluded
                    ):
                        continue
                delays.add((u.index, v.index))
        return delays


# -- randomized program generators -----------------------------------------


def tiny_program(seed: int) -> str:
    """A random 3-6 statement program, small enough for the oracle."""
    rng = random.Random(seed)
    statements = [
        "X = 1;",
        "Y = 2;",
        "int a{n} = X;",
        "int b{n} = Y;",
        "Z = Z + 1;",
        "barrier();",
        "post(f[MYPROC]);",
        "wait(f[0]);",
        "lock(lk); W = W + 1; unlock(lk);",
        "if (MYPROC == 0) { X = 3; }",
        "if (MYPROC == 1) { int c{n} = X; Y = 4; }",
    ]
    count = rng.randint(3, 6)
    body = []
    for n in range(count):
        body.append(
            "  " + rng.choice(statements).replace("{n}", str(n))
        )
    return (
        "shared int X; shared int Y; shared int Z; shared int W;\n"
        "shared flag_t f[8]; shared lock_t lk;\n"
        "void main() {\n" + "\n".join(body) + "\n}\n"
    )


def build(source: str):
    module = inlined(source)
    refine_index_metadata(module.main)
    accesses = AccessSet(module.main)
    conflicts = ConflictSet(accesses)
    return module, accesses, conflicts


# -- SAS level: engine vs seed vs oracle -----------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_sas_matches_seed_engine(seed):
    _module, accesses, conflicts = build(tiny_program(seed))
    fast = BackPathEngine(accesses, conflicts).delay_set()
    reference = SeedEngine(accesses, conflicts).delay_set()
    assert fast == reference


@pytest.mark.parametrize("seed", range(6))
def test_sas_matches_general_oracle(seed):
    _module, accesses, conflicts = build(tiny_program(seed))
    if len(accesses) > 14:
        pytest.skip("oracle is exponential; keep it tiny")
    fast = BackPathEngine(accesses, conflicts).delay_set()
    # The oracle's DFS is exponential in num_procs; 6 processors is
    # already enough to realize every distinct-processor assignment a
    # back-path over these tiny programs can need.
    oracle = GeneralBackPathFinder(
        accesses, conflicts, num_procs=min(len(accesses) + 2, 6)
    ).delay_set()
    assert fast == oracle


@pytest.mark.parametrize("seed", range(4))
def test_sas_matches_seed_on_generated_programs(seed):
    source = generate(seed, procs=3, num_phases=3)
    _module, accesses, conflicts = build(source)
    fast = BackPathEngine(accesses, conflicts).delay_set()
    reference = SeedEngine(accesses, conflicts).delay_set()
    assert fast == reference


# -- SYNC level: the full §5 driver with either engine ---------------------


def _analyze_with_seed_engine(monkeypatch, module, level):
    monkeypatch.setattr(delays_mod, "BackPathEngine", SeedEngine)
    try:
        return analyze_function(module.main, level)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "level", [AnalysisLevel.SAS, AnalysisLevel.SYNC],
    ids=["sas", "sync"],
)
def test_driver_equivalence_tiny(monkeypatch, seed, level):
    source = tiny_program(seed)
    fast = analyze_function(inlined(source).main, level)
    reference = _analyze_with_seed_engine(
        monkeypatch, inlined(source), level
    )
    assert fast.delays_by_index == reference.delays_by_index
    assert fast.d1 == reference.d1


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "level", [AnalysisLevel.SAS, AnalysisLevel.SYNC],
    ids=["sas", "sync"],
)
def test_driver_equivalence_generated(monkeypatch, seed, level):
    source = generate(seed, procs=3, num_phases=2)
    fast = analyze_function(inlined(source).main, level)
    reference = _analyze_with_seed_engine(
        monkeypatch, inlined(source), level
    )
    # delays_by_index is deterministic for identical source text;
    # instruction *uids* are a process-global counter and differ between
    # the two frontend runs, so they are not comparable here.
    assert fast.delays_by_index == reference.delays_by_index


def test_excluded_closures_match_seed_per_mask():
    """Mask-grouped excluded closures agree with per-pair seed BFS."""
    source = generate(1, procs=3, num_phases=3)
    _module, accesses, conflicts = build(source)
    fast = BackPathEngine(accesses, conflicts)
    reference = SeedEngine(accesses, conflicts)
    rng = random.Random(7)
    n = len(accesses)
    for _ in range(50):
        v = rng.randrange(n)
        mask = rng.getrandbits(n) & ~(1 << v)
        assert fast._closure_from(v, mask) == reference._closure_from(
            v, mask
        )
    # Re-query everything: answers must be stable under masked-row
    # memo hits.
    rng = random.Random(7)
    for _ in range(50):
        v = rng.randrange(n)
        mask = rng.getrandbits(n) & ~(1 << v)
        assert fast._closure_from(v, mask) == reference._closure_from(
            v, mask
        )
