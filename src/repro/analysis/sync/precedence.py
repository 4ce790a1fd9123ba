"""The precedence relation ``R`` (§5.1).

``R`` is a set of ordered access pairs [a1, a2] such that a1 is
guaranteed to complete before a2 is initiated (Definition 4).  It is
seeded with direct post→wait edges, merged with the initial sync-only
delay set ``D1``, and transitively closed.

The paper's step 4 then grows ``R`` by a dominator rule: [a1, b1] and
[b2, a2] in D1 with [b1, b2] in R give [a1, a2].  On a relation that
already holds the closure of D1 that pair is in ``R`` by transitivity,
so the rule is not implemented.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.analysis.accesses import Access, AccessSet


class PrecedenceRelation:
    """Bitset-backed ordered-pair relation over an access set."""

    def __init__(self, accesses: AccessSet):
        self._n = len(accesses)
        self._rows: List[int] = [0] * self._n
        self._pred_masks: Optional[List[int]] = None  # lazy transpose

    # -- basic operations ---------------------------------------------------

    def add(self, a: Access, b: Access) -> None:
        if a.index != b.index:
            self._rows[a.index] |= 1 << b.index
            self._pred_masks = None

    def add_pairs(self, pairs: Iterable[Tuple[int, int]]) -> None:
        for ai, bi in pairs:
            if ai != bi:
                self._rows[ai] |= 1 << bi
        self._pred_masks = None

    def has(self, a: Access, b: Access) -> bool:
        return bool(self._rows[a.index] >> b.index & 1)

    def row(self, a: Access) -> int:
        return self._rows[a.index]

    def successors_mask(self, index: int) -> int:
        return self._rows[index]

    def predecessor_masks(self) -> List[int]:
        """The transposed relation, computed once per mutation epoch."""
        if self._pred_masks is None:
            masks = [0] * self._n
            for i, row in enumerate(self._rows):
                bit = 1 << i
                while row:
                    low = row & -row
                    masks[low.bit_length() - 1] |= bit
                    row ^= low
            self._pred_masks = masks
        return self._pred_masks

    def predecessors_mask(self, index: int) -> int:
        return self.predecessor_masks()[index]

    def pair_count(self) -> int:
        return sum(bin(row).count("1") for row in self._rows)

    def pairs(self) -> List[Tuple[int, int]]:
        result = []
        for i, row in enumerate(self._rows):
            mask = row
            while mask:
                low = mask & -mask
                result.append((i, low.bit_length() - 1))
                mask ^= low
        return result

    # -- closure ------------------------------------------------------------

    def transitive_close(self) -> None:
        """In-place transitive closure (repeated row absorption)."""
        changed = True
        while changed:
            changed = False
            for i in range(self._n):
                row = self._rows[i]
                mask = row
                new_row = row
                while mask:
                    low = mask & -mask
                    j = low.bit_length() - 1
                    mask ^= low
                    new_row |= self._rows[j]
                new_row &= ~(1 << i)  # keep irreflexive
                if new_row != row:
                    self._rows[i] = new_row
                    self._pred_masks = None
                    changed = True
