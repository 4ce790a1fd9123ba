"""SPMD back-path detection via conflict-alternating reachability.

For SPMD programs every processor executes the same static code, so the
multi-processor back-path of Definition 2 collapses to a chain over the
single static access set (our earlier SPMD result [Krishnamurthy &
Yelick, LCPC'94] — section 1 of the paper):

    delay [u, v]  iff  there is a chain
        v ->C x1 ->P* y1 ->C x2 ->P* y2 ->C ... ->C u

where each ``->C`` is a (directed) conflict edge and each ``->P*`` stays
within one processor visit (at most the two accesses ``xi``, ``yi``,
matching Definition 1's "two accesses per processor visit"; ``xi = yi``
covers single-access visits).  Intermediate visits use fresh processor
copies, which SPMD always provides, so chain existence is equivalent to
simple-path existence.  Note the first and last edges are conflict
edges: the endpoints ``u``, ``v`` live on the delay edge's processor and
the path must leave it immediately and return only at the end — a
back-path therefore contains at least *two* conflict edges.

Bitsets (Python ints) make the whole-program computation
O(accesses^2 * accesses/64) in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.accesses import Access, AccessSet
from repro.analysis.conflicts import ConflictSet


def _iter_bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class EngineStats:
    """Work counters for the profiler (``--profile``)."""

    closures: int = 0  # BFS closures run
    masked_rows: int = 0  # exclusion-masked t-rows computed
    masked_row_hits: int = 0
    mask_groups: int = 0  # distinct (source, exclusion-mask) groups
    excluded_pair_queries: int = 0

    def as_counters(self, prefix: str = "engine.") -> Dict[str, int]:
        return {
            f"{prefix}closures": self.closures,
            f"{prefix}masked_rows": self.masked_rows,
            f"{prefix}masked_row_hits": self.masked_row_hits,
            f"{prefix}mask_groups": self.mask_groups,
            f"{prefix}excluded_pair_queries": self.excluded_pair_queries,
        }


class BackPathEngine:
    """Answers back-path queries against one (P, C) configuration.

    A pure function of its two inputs: the conflict set may be directed
    (after §5's orientation); build a fresh engine after mutating it.

    ``delay_set`` groups its excluded queries by (source, exclusion
    mask): the masks produced by §5's rules are highly shared (they
    come from precedence successor/predecessor rows), so one BFS
    typically serves many delay-candidate pairs.
    """

    def __init__(self, accesses: AccessSet, conflicts: ConflictSet):
        self._accesses = accesses
        self.stats = EngineStats()
        #: (node index, excluded mask) -> masked visit-continuation row.
        self._masked_t_cache: Dict[Tuple[int, int], int] = {}
        self._c_rows: List[int] = [
            conflicts.row_by_index(i) for i in range(len(accesses))
        ]
        # P* including self: one "processor visit" is x (then optionally
        # a later access y of the same copy).
        self._pstar_self: List[int] = [
            accesses.p_row(a) | (1 << a.index) for a in accesses
        ]
        # T[x] = union of C rows over the in-visit continuations of x:
        # a boolean product of P* and C, computed as one structured
        # sweep over the block layout.
        self._t_rows: List[int] = accesses.fold_over_p(self._c_rows)

    # -- closures ---------------------------------------------------------

    def _masked_t_row(self, x: int, excluded: int, allowed: int) -> int:
        """The visit-continuation row of ``x`` under an exclusion mask.

        Computed once per (x, excluded) for the engine's lifetime — not
        once per frontier occurrence — since closures from different
        sources overwhelmingly share exclusion masks.
        """
        key = (x, excluded)
        row = self._masked_t_cache.get(key)
        if row is None:
            row = 0
            c_rows = self._c_rows
            # The in-visit partner y must not be excluded either.
            mask = self._pstar_self[x] & allowed
            while mask:
                low = mask & -mask
                row |= c_rows[low.bit_length() - 1]
                mask ^= low
            self._masked_t_cache[key] = row
            self.stats.masked_rows += 1
        else:
            self.stats.masked_row_hits += 1
        return row

    def _closure_from(self, v_index: int, excluded: int = 0) -> Tuple[int, int]:
        """Returns (closure, final) bitsets for back-paths starting at v.

        ``closure`` is every access reachable as a post-conflict-edge
        node; ``final`` is every access reachable as the *target of the
        final conflict edge* — i.e. the set of ``u`` with a back-path
        from ``v``.  ``excluded`` masks accesses that may not appear as
        intermediate path members (§5's pruning rules).
        """
        allowed = ~excluded
        start = self._c_rows[v_index] & allowed
        closure = 0
        frontier = start
        final = 0
        t_rows = self._t_rows
        while frontier:
            closure |= frontier
            next_frontier = 0
            mask = frontier
            while mask:
                low = mask & -mask
                mask ^= low
                x = low.bit_length() - 1
                if excluded:
                    t_row = self._masked_t_row(x, excluded, allowed)
                else:
                    t_row = t_rows[x]
                final |= t_row
                next_frontier |= t_row & allowed & ~closure
            frontier = next_frontier
        self.stats.closures += 1
        return closure, final

    def _p_pred_rows(self) -> List[int]:
        """Transposed program order: bit u of row v set iff u P v."""
        return self._accesses.p_pred_rows()

    def back_path_targets(self, v: Access, excluded: int = 0) -> int:
        """Bitset of all ``u`` such that [u, v] has a back-path."""
        _closure, final = self._closure_from(v.index, excluded)
        return final

    def has_back_path(self, u: Access, v: Access, excluded: int = 0) -> bool:
        """Does delay candidate [u, v] have a back-path from v to u?"""
        return bool(self.back_path_targets(v, excluded) >> u.index & 1)

    # -- delay set computation -------------------------------------------------

    def delay_set(
        self,
        pair_filter=None,
        excluded_for=None,
    ) -> Set[Tuple[int, int]]:
        """Computes {(u.index, v.index)} over all P pairs with back-paths.

        ``pair_filter(u, v)`` restricts the candidate universe (e.g. §5
        step 2 restricts to pairs involving a synchronization access).
        ``excluded_for(u, v)`` returns the exclusion bitset for a pair;
        when provided, pairs surviving the unexcluded test are re-checked
        with their exclusions (exclusions only remove paths, so the
        unexcluded pass is a sound over-approximation to filter with).

        Surviving pairs are grouped by (source, exclusion mask): each
        distinct mask triggers exactly one excluded closure, answering
        every pair in its group from the resulting ``final`` bitset.
        """
        delays: Set[Tuple[int, int]] = set()
        accesses = list(self._accesses)
        p_pred = self._p_pred_rows()
        #: (v index, exclusion mask) -> candidate u indices.
        groups: Dict[Tuple[int, int], List[int]] = {}
        for v in accesses:
            targets = self.back_path_targets(v)
            # Delay candidates need u P v: intersect with the transposed
            # program order and walk only the set bits.
            candidates = targets & p_pred[v.index]
            if not candidates:
                continue
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                u_index = low.bit_length() - 1
                u = accesses[u_index]
                if pair_filter is not None and not pair_filter(u, v):
                    continue
                if excluded_for is not None:
                    excluded = excluded_for(u, v)
                    if excluded:
                        groups.setdefault(
                            (v.index, excluded), []
                        ).append(u_index)
                        continue
                delays.add((u_index, v.index))
        self.stats.mask_groups += len(groups)
        for (v_index, excluded), members in groups.items():
            _closure, final = self._closure_from(v_index, excluded)
            for u_index in members:
                self.stats.excluded_pair_queries += 1
                if final >> u_index & 1:
                    delays.add((u_index, v_index))
        return delays


    # -- witnesses -----------------------------------------------------------

    def witness_chain(
        self, u: Access, v: Access, excluded: int = 0
    ) -> Optional[List[int]]:
        """A concrete back-path witnessing the delay [u, v], or None.

        Returns access indices [v, x1, y1?, x2, y2?, ..., u]: the first
        and last hops are conflict edges; within a hop pair xi..yi the
        link is program order on one processor copy.  Used by the
        analysis report to *explain* each delay edge.
        """
        allowed = ~excluded
        accesses = list(self._accesses)
        # BFS with parent tracking over post-conflict-edge states.
        start = self._c_rows[v.index] & allowed
        parent: Dict[int, Optional[Tuple[int, int]]] = {}
        frontier: List[int] = []
        for x in _iter_bits(start):
            parent[x] = None
            frontier.append(x)
        target_bit = u.index
        # Immediate finish: x conflicts into u.
        def finish_from(x: int) -> Optional[List[int]]:
            for y in _iter_bits(self._pstar_self[x] & allowed):
                if self._c_rows[y] >> target_bit & 1:
                    chain = [u.index]
                    if y != x:
                        chain.append(y)
                    node: Optional[int] = x
                    while node is not None:
                        chain.append(node)
                        step = parent[node]
                        if step is None:
                            node = None
                        else:
                            mid, prev = step
                            if mid != prev:
                                chain.append(mid)
                            node = prev
                    chain.append(v.index)
                    chain.reverse()
                    return chain
            return None

        seen = set(frontier)
        while frontier:
            next_frontier: List[int] = []
            for x in frontier:
                done = finish_from(x)
                if done is not None:
                    return done
                for y in _iter_bits(self._pstar_self[x] & allowed):
                    for z in _iter_bits(self._c_rows[y] & allowed):
                        if z not in seen:
                            seen.add(z)
                            parent[z] = (y, x)
                            next_frontier.append(z)
            frontier = next_frontier
        return None
