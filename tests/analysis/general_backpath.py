"""Reference back-path finder: explicit simple-path enumeration.

This module implements Definitions 1–3 of the paper directly, over an
explicit ``k``-processor instantiation of the SPMD program: nodes are
(access, processor) pairs, P edges connect accesses of the same copy in
program order, and C edges connect conflicting accesses of *different*
copies.  A DFS enumerates simple paths obeying Definition 1:

* every processor is visited at most once, except the endpoint
  processor which hosts exactly the path's two endpoints;
* a visit contains at most two path members, linked by a P edge;
* consecutive path members on different processors are linked by C
  edges.

It is exponential in the worst case and exists purely as an oracle: the
test suite checks it agrees with the fast SPMD engine
(:mod:`repro.analysis.cycle.spmd`) on small programs.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.analysis.accesses import Access, AccessSet
from repro.analysis.conflicts import ConflictSet


class GeneralBackPathFinder:
    """Simple-path back-path search over explicit processor copies."""

    def __init__(
        self,
        accesses: AccessSet,
        conflicts: ConflictSet,
        num_procs: int = 4,
    ):
        self._accesses = accesses
        self._conflicts = conflicts
        self._num_procs = num_procs

    def find_back_path(
        self,
        u: Access,
        v: Access,
        excluded: Optional[Set[int]] = None,
    ) -> Optional[List[Tuple[int, int]]]:
        """A back-path for delay candidate [u, v], or None.

        The returned path is a list of (access index, processor) pairs
        from (v, 0) to (u, 0).
        """
        excluded = excluded or set()
        if v.index in excluded or u.index in excluded:
            # Endpoints are never excluded by the §5 rules; guard anyway.
            excluded = excluded - {v.index, u.index}
        if self._num_procs < 2:
            # A back-path needs at least one intermediate processor
            # besides the delay edge's own.
            return None

        conflicts = self._conflicts
        accesses = self._accesses

        def conflict_targets(a: Access) -> List[Access]:
            row = conflicts.row(a)
            return [b for b in accesses if row >> b.index & 1]

        # DFS state: current access, current processor, whether the
        # current visit already has two members, set of closed procs.
        # The endpoint processor is 0: it hosts v at the start and must
        # host u at the end, with nothing in between.
        path: List[Tuple[int, int]] = [(v.index, 0)]
        used_procs: Set[int] = set()

        def dfs(current: Access, proc: int, visit_len: int) -> bool:
            # Try to finish: a conflict edge back to u on processor 0.
            if proc != 0 and conflicts.has_edge(current, u):
                path.append((u.index, 0))
                return True
            # Extend within the current visit (at most two members).
            if proc != 0 and visit_len == 1:
                p_row = accesses.p_row(current)
                for b in accesses:
                    if b.index in excluded:
                        continue
                    if not p_row >> b.index & 1:
                        continue
                    path.append((b.index, proc))
                    if dfs(b, proc, 2):
                        return True
                    path.pop()
            # Leave via a conflict edge to a fresh processor.
            for b in conflict_targets(current):
                if b.index in excluded:
                    continue
                for next_proc in range(1, self._num_procs):
                    if next_proc == proc or next_proc in used_procs:
                        continue
                    used_procs.add(next_proc)
                    path.append((b.index, next_proc))
                    if dfs(b, next_proc, 1):
                        return True
                    path.pop()
                    used_procs.discard(next_proc)
                    break  # all fresh processors are symmetric; try one
            return False

        # First edge must be a conflict edge leaving processor 0.
        for b in conflict_targets(v):
            if b.index in excluded:
                continue
            used_procs = {0, 1}
            path = [(v.index, 0), (b.index, 1)]
            if dfs(b, 1, 1):
                return path
        return None

    def has_back_path(
        self, u: Access, v: Access, excluded: Optional[Set[int]] = None
    ) -> bool:
        return self.find_back_path(u, v, excluded) is not None

    def delay_set(self) -> Set[Tuple[int, int]]:
        """All P pairs with back-paths (oracle-grade, small programs only)."""
        delays: Set[Tuple[int, int]] = set()
        for u in self._accesses:
            for v in self._accesses:
                if not self._accesses.program_order(u, v):
                    continue
                if self.has_back_path(u, v):
                    delays.add((u.index, v.index))
        return delays
