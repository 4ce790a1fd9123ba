"""The conflict set ``C`` (section 3/4 of the paper).

``C`` contains all unordered pairs of shared accesses issued by
*different* processors that may touch the same location with at least
one write.  We keep it as a *directed* structure from the start: the
initial set is symmetric, and the synchronization analysis (§5 step 5)
later removes one direction of edges whose order is implied by the
precedence relation ``R``.

Following the paper, synchronization operations are also memory
accesses for conflict purposes: a post writes its flag, a wait reads
it, lock/unlock read-modify-write the lock word, and barriers all touch
a global barrier token.  (This is what makes the purely Shasha–Snir
analysis so conservative on synchronized programs — every access
"conflicts" with the synchronization accesses around it, creating the
spurious cycles §5 removes.)

SPMD self-conflicts are real: the same static write executed by two
processors conflicts with itself unless the index analysis proves that
distinct processors touch distinct elements (e.g. ``A[MYPROC]``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.accesses import Access, AccessSet
from repro.analysis.symbolic import VarDomain, may_be_equal
from repro.ir.instructions import IndexMeta


def _domains(meta: Optional[IndexMeta]) -> Dict[str, VarDomain]:
    if meta is None:
        return {}
    domains: Dict[str, VarDomain] = {}
    for loop in meta.loops:
        domains[loop.var] = VarDomain(lo=loop.lo, hi=loop.hi)
    return domains


def indices_may_collide(
    a: Access, b: Access, same_processor: bool = False
) -> bool:
    """Can accesses ``a`` and ``b`` touch the same element?

    With ``same_processor=False`` the test is the cross-processor
    conflict-set question (``p != q``); with ``same_processor=True`` it
    is the local-dependence question used by code generation.
    """
    return _metas_may_collide(a.meta, b.meta, same_processor)


def _metas_may_collide(
    meta_a: Optional[IndexMeta],
    meta_b: Optional[IndexMeta],
    same_processor: bool,
) -> bool:
    if not same_processor:
        guard_a = meta_a.proc_guard if meta_a is not None else None
        guard_b = meta_b.proc_guard if meta_b is not None else None
        if guard_a is not None and guard_b is not None:
            # Both accesses are pinned to compile-time processor ids;
            # sharing any pin means they can never run on *different*
            # processors, so no conflict-set edge is possible.
            if set(guard_a) & set(guard_b):
                return False
    exprs_a = meta_a.exprs if meta_a is not None else ()
    exprs_b = meta_b.exprs if meta_b is not None else ()
    if len(exprs_a) != len(exprs_b):
        return True  # differently-shaped views: be conservative
    if not exprs_a:
        return True  # scalars: always the same location
    dom_a = _domains(meta_a)
    dom_b = _domains(meta_b)
    for expr_a, expr_b in zip(exprs_a, exprs_b):
        if not may_be_equal(
            expr_a, expr_b, dom_a, dom_b, same_processor=same_processor
        ):
            return False  # provably disjoint in this dimension
    return True


class ConflictSet:
    """Directed conflict edges over an :class:`AccessSet`.

    ``row(a)`` is the bitset of accesses ``b`` with a (still-directed)
    conflict edge ``a -> b``.  ``remove_direction`` implements §5 step 5.
    """

    def __init__(self, accesses: AccessSet, build: bool = True):
        self._accesses = accesses
        self._rows: List[int] = [0] * len(accesses)
        self.pair_count = 0  # unordered pairs, for reporting
        if build:
            self._build()

    def _build(self) -> None:
        """Class-grouped construction.

        The conflict question depends only on ``(var, meta, is_write)``,
        so accesses are partitioned into equivalence classes and the
        symbolic feasibility test runs once per class *pair*; edges are
        then broadcast with one bitmask OR per member.  Real kernels
        have a handful of index shapes over hundreds of accesses, which
        turns the quadratic pairwise scan into class-count work.
        """
        by_var: Dict[str, List[Access]] = {}
        for access in self._accesses:
            by_var.setdefault(access.var, []).append(access)
        for members in by_var.values():
            # (meta, is_write) -> [accesses]; insertion order preserved.
            classes: Dict[tuple, List[Access]] = {}
            for a in members:
                classes.setdefault((a.meta, a.is_write), []).append(a)
            keys = list(classes)
            masks = {
                key: self._member_mask(group)
                for key, group in classes.items()
            }
            for i, key_a in enumerate(keys):
                meta_a, write_a = key_a
                group_a = classes[key_a]
                for key_b in keys[i:]:
                    meta_b, write_b = key_b
                    if not (write_a or write_b):
                        continue
                    if not _metas_may_collide(meta_a, meta_b, False):
                        continue
                    group_b = classes[key_b]
                    mask_a, mask_b = masks[key_a], masks[key_b]
                    for a in group_a:
                        self._rows[a.index] |= mask_b
                    for b in group_b:
                        self._rows[b.index] |= mask_a
                    if key_a == key_b:
                        k = len(group_a)
                        self.pair_count += k * (k + 1) // 2
                    else:
                        self.pair_count += len(group_a) * len(group_b)

    @staticmethod
    def _member_mask(group: List[Access]) -> int:
        mask = 0
        for a in group:
            mask |= 1 << a.index
        return mask

    # -- mutation --------------------------------------------------------

    def remove_direction(self, a: Access, b: Access) -> None:
        """Removes the directed edge ``a -> b`` (keeping ``b -> a``)."""
        self._rows[a.index] &= ~(1 << b.index)

    def remove_directions(self, masks: List[int]) -> None:
        """Bulk form: clears the bits of ``masks[i]`` from row ``i``."""
        for i, mask in enumerate(masks):
            if mask:
                self._rows[i] &= ~mask

    def copy(self) -> "ConflictSet":
        clone = ConflictSet(self._accesses, build=False)
        clone._rows = list(self._rows)
        clone.pair_count = self.pair_count
        return clone

    # -- queries ------------------------------------------------------------

    def row(self, a: Access) -> int:
        return self._rows[a.index]

    def row_by_index(self, index: int) -> int:
        return self._rows[index]

    def has_edge(self, a: Access, b: Access) -> bool:
        return bool(self._rows[a.index] >> b.index & 1)

    def edges(self) -> List[Tuple[Access, Access]]:
        result = []
        for a in self._accesses:
            row = self._rows[a.index]
            for b in self._accesses:
                if row >> b.index & 1:
                    result.append((a, b))
        return result

    def directed_edge_count(self) -> int:
        return sum(bin(row).count("1") for row in self._rows)


def local_dependence_pairs(
    accesses: AccessSet,
) -> Set[Tuple[int, int]]:
    """Same-processor may-same-location dependencies (uids, program order).

    Code generation must preserve these regardless of the delay set: a
    put followed by a read of the same remote location on the *same*
    processor must not be reordered, or the processor could read its own
    stale value.  Pairs are (earlier uid, later uid) of two *distinct*
    accesses with at least one write; read-read pairs need no local
    ordering.

    An access is never paired with itself, not even a write in a loop
    whose later iteration may hit the element an earlier one wrote:
    every reader asks about two different instructions of one block.
    Hoisting and get reuse compare an instruction with the ones above
    it, and dead-put elimination compares a put with the ones after it,
    so a ``(u, u)`` pair would never be read.
    """
    result: Set[Tuple[int, int]] = set()
    by_var: Dict[str, List[Access]] = {}
    for access in accesses.data_accesses():
        by_var.setdefault(access.var, []).append(access)
    access_by_index = list(accesses)
    for members in by_var.values():
        # Same class-grouping trick as ConflictSet._build: the collide
        # answer depends only on (meta, meta), so test once per class
        # pair and sweep members with bitmask intersections.
        classes: Dict[tuple, List[Access]] = {}
        for a in members:
            classes.setdefault((a.meta, a.is_write), []).append(a)
        masks = {}
        write_union = 0
        for key, group in classes.items():
            mask = 0
            for a in group:
                mask |= 1 << a.index
            masks[key] = mask
            if key[1]:
                write_union |= mask
        #: meta -> mask of members b with indices_may_collide(a, b)
        #: under same_processor=True, for a of that meta.
        collide_masks: Dict[Optional[IndexMeta], int] = {}
        metas = {key[0] for key in classes}
        for meta_a in metas:
            mask = 0
            for key_b, group_mask in masks.items():
                if _metas_may_collide(meta_a, key_b[0], True):
                    mask |= group_mask
            collide_masks[meta_a] = mask
        for a in members:
            a_row = accesses.p_row(a)
            self_bit = 1 << a.index
            # b must follow a in P, touch a colliding location, and at
            # least one side must write.
            candidates = a_row & collide_masks[a.meta] & ~self_bit
            if not a.is_write:
                candidates &= write_union
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                b = access_by_index[low.bit_length() - 1]
                result.add((a.uid, b.uid))
    return result
