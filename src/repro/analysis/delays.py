"""Delay-set computation driver.

Assembles the full analysis of the paper:

* ``AnalysisLevel.SAS`` — plain Shasha–Snir cycle detection (§4):
  synchronization operations are just conflicting memory accesses, no
  precedence information.  This is the baseline the paper improves on.

* ``AnalysisLevel.SYNC`` — the paper's contribution (§5): the six-step
  refinement using post-wait matching, barrier phase intervals and lock
  guards to orient conflict edges and prune back-path searches.

The result bundles everything downstream passes need: the delay set as
instruction-uid pairs, the precedence relation, local (same-processor)
dependence pairs, and size statistics for the evaluation benches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.analysis.accesses import Access, AccessSet
from repro.analysis.conflicts import (
    ConflictSet,
    local_dependence_pairs,
)
from repro.analysis.cycle.spmd import BackPathEngine
from repro.analysis.sync.barriers import BarrierPhases, BarrierSegments
from repro.analysis.sync.locks import LockGuards
from repro.analysis.sync.postwait import match_post_wait
from repro.analysis.sync.precedence import PrecedenceRelation
from repro.ir.cfg import Function
from repro.ir.dominators import DominatorTree


class AnalysisLevel(enum.Enum):
    """How much synchronization information the analysis uses."""

    SAS = "shasha-snir"
    SYNC = "sync-aware"


@dataclass
class AnalysisStats:
    """Size statistics reported by the evaluation benches."""

    num_accesses: int = 0
    num_sync_accesses: int = 0
    conflict_pairs: int = 0
    directed_conflict_edges: int = 0
    d1_size: int = 0
    precedence_size: int = 0
    delay_size: int = 0
    p_pairs: int = 0


@dataclass
class AnalysisResult:
    """Everything the code generator needs from the parallel analysis."""

    level: AnalysisLevel
    accesses: AccessSet
    conflicts: ConflictSet
    oriented_conflicts: ConflictSet
    precedence: Optional[PrecedenceRelation]
    d1: Set[Tuple[int, int]]
    delays_by_index: Set[Tuple[int, int]]
    #: The delay set as (earlier uid, later uid) pairs.
    delay_uid_pairs: FrozenSet[Tuple[int, int]] = frozenset()
    #: Same-processor may-same-location dependences as uid pairs.
    local_dep_uid_pairs: FrozenSet[Tuple[int, int]] = frozenset()
    stats: AnalysisStats = field(default_factory=AnalysisStats)

    def is_delayed(self, earlier_uid: int, later_uid: int) -> bool:
        """Must ``later`` be held until ``earlier`` completes?"""
        return (earlier_uid, later_uid) in self.delay_uid_pairs

    def delay_edges(self):
        """Delay edges as (Access, Access) pairs, for reporting."""
        accesses = list(self.accesses)
        return [
            (accesses[u], accesses[v]) for u, v in sorted(self.delays_by_index)
        ]

    def fence_uids(self) -> FrozenSet[int]:
        """Uids of delay-edge *targets* — the weak-memory fence points.

        Under TSO/PSO the simulator drains a processor's store buffer
        before executing any of these instructions.  Every delay edge
        (u, v) is an intra-processor program-order constraint, so
        fencing at each target v restores all delay edges, which by
        Shasha–Snir suffices for sequentially consistent behaviour.
        """
        return frozenset(later for _earlier, later in self.delay_uid_pairs)


def _sync_pair_filter(u: Access, v: Access) -> bool:
    return u.is_sync or v.is_sync


def analyze_function(
    function: Function,
    level: AnalysisLevel = AnalysisLevel.SYNC,
    reuse_from: Optional[AnalysisResult] = None,
) -> AnalysisResult:
    """Runs delay-set analysis on one (fully inlined) SPMD function.

    ``reuse_from`` — a prior :class:`AnalysisResult` for the *same*
    function object (typically the other :class:`AnalysisLevel`,
    supplied by a shared :class:`~repro.pipeline.CompilationSession`).
    The level-independent artifacts — refined index metadata, the
    access set, the undirected conflict set, and the local-dependence
    pairs — are taken from it instead of being recomputed; the
    level-specific delay computation still runs in full, so results are
    identical to a cold analysis.
    """
    from repro.analysis import symbolic
    from repro.ir.symrefine import refine_index_metadata
    from repro.perf import profiler as perf

    sym_before = symbolic.cache_counters()
    if reuse_from is not None and reuse_from.accesses.function is function:
        # Cross-level artifact reuse: index refinement is idempotent
        # and AccessSet/ConflictSet depend only on the (unchanged)
        # function, so the sibling level's copies are byte-equivalent.
        accesses = reuse_from.accesses
        conflicts = reuse_from.conflicts
        perf.count("analysis.artifacts_reused")
    else:
        reuse_from = None
        with perf.pass_timer("analysis.refine-index"):
            refine_index_metadata(function)
        with perf.pass_timer("analysis.access-set"):
            accesses = AccessSet(function)
        with perf.pass_timer("analysis.conflict-set"):
            conflicts = ConflictSet(accesses)
    engine = BackPathEngine(accesses, conflicts)

    if level is AnalysisLevel.SAS:
        with perf.pass_timer("analysis.sas-delay-set"):
            delays = engine.delay_set()
        result = AnalysisResult(
            level=level,
            accesses=accesses,
            conflicts=conflicts,
            oriented_conflicts=conflicts,
            precedence=None,
            d1=set(),
            delays_by_index=delays,
        )
        _record_engine_counters(sym_before, engine)
        return _finish(result, function, reuse_from)

    with perf.pass_timer("analysis.dominators"):
        dominators = DominatorTree(function)

    # Step 2: initial delay restrictions — pairs involving a sync access.
    with perf.pass_timer("analysis.d1"):
        d1 = engine.delay_set(pair_filter=_sync_pair_filter)

    # Step 3: direct precedence edges.
    with perf.pass_timer("analysis.precedence"):
        precedence = PrecedenceRelation(accesses)
        for post, wait in match_post_wait(accesses):
            precedence.add(post, wait)
        phases = BarrierPhases(accesses)
        precedence.add_rows(phases.ordered_rows())
        # "R is expanded to include the transitive closure of itself
        # and D1."
        precedence.add_pairs(d1)
        precedence.transitive_close()

        # Step 4: the dominator refinement, to fixpoint.
        precedence.refine_with_dominators(d1, dominators)

    # Step 5: orient conflict edges implied by the precedence.
    with perf.pass_timer("analysis.orient"):
        oriented = conflicts.copy()
        access_list = list(accesses)
        # Edge a2 -> a1 is removed for every [a1, a2] in R: row a2 loses
        # exactly its R-predecessors, so the transpose rows are the
        # removal masks.
        oriented.remove_directions(precedence.predecessor_masks())

        # §5.2: drop conflict edges between barrier-separated data
        # accesses.  Their instances never share a global phase, and D1
        # (already computed, with the full conflict set) anchors each
        # access to its phase boundaries with [access, barrier] delays.
        # Separation is symmetric and we mask every non-sync access's
        # row, so both directions of each pair are cleared.
        segments = BarrierSegments(accesses)
        sep_rows = segments.separated_rows()
        data_mask = 0
        for a in access_list:
            if not a.is_sync:
                data_mask |= 1 << a.index
        oriented.remove_directions(
            [
                sep_rows[a.index] & data_mask if not a.is_sync else 0
                for a in access_list
            ]
        )

    # Step 6: final delay set over P ∪ C1 with access pruning.
    with perf.pass_timer("analysis.final-delays"):
        guards = LockGuards(accesses, dominators, d1)
        engine2 = BackPathEngine(accesses, oriented)

        pred_masks = precedence.predecessor_masks()

        def excluded_for(u: Access, v: Access) -> int:
            # Figure 6's rule and its dual: accesses forced after u, or
            # forced before v, cannot appear in a back-path from v to u.
            mask = precedence.successors_mask(u.index)
            mask |= pred_masks[v.index]
            mask &= ~(1 << u.index)
            mask &= ~(1 << v.index)
            # The §5.3 lock exclusion may legitimately include u and v
            # themselves (their other-processor instances are guarded
            # too).
            mask |= guards.exclusion_mask(u, v)
            return mask

        delays = engine2.delay_set(excluded_for=excluded_for)
        delays |= d1

    result = AnalysisResult(
        level=level,
        accesses=accesses,
        conflicts=conflicts,
        oriented_conflicts=oriented,
        precedence=precedence,
        d1=d1,
        delays_by_index=delays,
    )
    _record_engine_counters(sym_before, engine, engine2)
    return _finish(result, function, reuse_from)


def _record_engine_counters(
    sym_before: Dict[str, int], *engines: BackPathEngine
) -> None:
    """Transfers engine and symbolic-cache work counters in bulk.

    The symbolic caches are module-global and cumulative, so only the
    delta since this analysis started is attributed to it.
    """
    from repro.analysis import symbolic
    from repro.perf import profiler as perf

    profiler = perf.current()
    if profiler is None:
        return
    for engine in engines:
        profiler.count_many(engine.stats.as_counters())
    profiler.count_many(
        {
            name: value - sym_before.get(name, 0)
            for name, value in symbolic.cache_counters().items()
        }
    )


def _finish(
    result: AnalysisResult,
    function: Function,
    reuse_from: Optional[AnalysisResult] = None,
) -> AnalysisResult:
    from repro.perf import profiler as perf

    accesses = result.accesses
    access_list = list(accesses)
    result.delay_uid_pairs = frozenset(
        (access_list[u].uid, access_list[v].uid)
        for u, v in result.delays_by_index
    )
    if reuse_from is not None and reuse_from.accesses is accesses:
        # Same-processor dependences are level-independent.
        result.local_dep_uid_pairs = reuse_from.local_dep_uid_pairs
    else:
        with perf.pass_timer("analysis.local-deps"):
            result.local_dep_uid_pairs = frozenset(
                local_dependence_pairs(accesses)
            )
    stats = result.stats
    stats.num_accesses = len(accesses)
    stats.num_sync_accesses = len(accesses.sync_accesses())
    stats.conflict_pairs = result.conflicts.pair_count
    stats.directed_conflict_edges = (
        result.oriented_conflicts.directed_edge_count()
    )
    stats.d1_size = len(result.d1)
    stats.precedence_size = (
        result.precedence.pair_count() if result.precedence else 0
    )
    stats.delay_size = len(result.delays_by_index)
    stats.p_pairs = accesses.p_pair_count()
    return result
