"""Shared-access extraction and the program order relation ``P``.

The parallel analyses see a program as a set of *accesses*: reads and
writes of shared variables plus the synchronization operations (post,
wait, barrier, lock, unlock), each attached to its CFG position.  The
program order ``P`` is the transitive closure of the control-flow graph
restricted to accesses (section 3 of the paper): ``a P b`` iff some
control-flow path executes ``a`` and then ``b``.

SPMD note: every processor runs the same CFG, so one set of static
accesses describes all processors; the conflict analysis decides which
pairs can interfere *across* processors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.cfg import Function
from repro.ir.instructions import IndexMeta, Opcode

#: Pseudo-variable name carried by barrier accesses: every barrier
#: "touches" this token, so barriers conflict with each other.
BARRIER_VAR = "__barrier__"


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    POST = "post"
    WAIT = "wait"
    BARRIER = "barrier"
    LOCK = "lock"
    UNLOCK = "unlock"


#: Kinds that denote explicit synchronization constructs (§5).
SYNC_KINDS = frozenset(
    {
        AccessKind.POST,
        AccessKind.WAIT,
        AccessKind.BARRIER,
        AccessKind.LOCK,
        AccessKind.UNLOCK,
    }
)

_OPCODE_TO_KIND = {
    Opcode.READ_SHARED: AccessKind.READ,
    Opcode.GET: AccessKind.READ,
    Opcode.WRITE_SHARED: AccessKind.WRITE,
    Opcode.PUT: AccessKind.WRITE,
    Opcode.STORE: AccessKind.WRITE,
    Opcode.POST: AccessKind.POST,
    Opcode.WAIT: AccessKind.WAIT,
    Opcode.BARRIER: AccessKind.BARRIER,
    Opcode.LOCK: AccessKind.LOCK,
    Opcode.UNLOCK: AccessKind.UNLOCK,
}


@dataclass(frozen=True)
class Access:
    """A static shared access or synchronization operation."""

    index: int  # dense index within the access set (bitset position)
    uid: int  # instruction uid
    kind: AccessKind
    var: str
    block: str
    position: int  # index within the block
    meta: Optional[IndexMeta] = None

    @property
    def is_sync(self) -> bool:
        return self.kind in SYNC_KINDS

    @property
    def is_write(self) -> bool:
        """Write semantics for conflict purposes.

        Post writes its flag; lock/unlock perform read-modify-write on
        the lock word; a barrier is modeled as a write to the barrier
        token.
        """
        return self.kind in (
            AccessKind.WRITE,
            AccessKind.POST,
            AccessKind.BARRIER,
            AccessKind.LOCK,
            AccessKind.UNLOCK,
        )

    def describe(self) -> str:
        idx = ""
        if self.meta is not None and self.meta.exprs:
            idx = "[" + "][".join(
                str(e) if e is not None else "?" for e in self.meta.exprs
            ) + "]"
        return f"{self.kind.value} {self.var}{idx} @{self.block}:{self.position}"

    def __str__(self) -> str:
        return self.describe()


class AccessSet:
    """All accesses of a function plus the program-order relation."""

    def __init__(self, function: Function):
        self.function = function
        self.accesses: List[Access] = []
        self.by_uid: Dict[int, Access] = {}
        self._extract()
        self._block_reach = self._compute_block_reachability()
        self._p_rows = self._compute_program_order()

    # -- extraction ---------------------------------------------------------

    def _extract(self) -> None:
        for block in self.function.blocks:
            for position, instr in enumerate(block.instrs):
                kind = _OPCODE_TO_KIND.get(instr.op)
                if kind is None:
                    continue
                var = BARRIER_VAR if kind is AccessKind.BARRIER else instr.var
                access = Access(
                    index=len(self.accesses),
                    uid=instr.uid,
                    kind=kind,
                    var=var,
                    block=block.label,
                    position=position,
                    meta=instr.index_meta,
                )
                self.accesses.append(access)
                self.by_uid[instr.uid] = access

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self):
        return iter(self.accesses)

    # -- program order --------------------------------------------------------

    def _compute_block_reachability(self) -> Dict[str, Set[str]]:
        """reach[L] = labels reachable from L by a non-empty path."""
        succs = {
            block.label: block.successors() for block in self.function.blocks
        }
        reach: Dict[str, Set[str]] = {}
        for label in succs:
            seen: Set[str] = set()
            stack = list(succs[label])
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(succs[current])
            reach[label] = seen
        return reach

    def _compute_program_order(self) -> List[int]:
        """Bitset rows: bit j of row i set iff access i precedes j in P.

        Built from per-block bitmasks: ``a``'s row is the suffix of its
        own block after ``a`` plus the whole mask of every reachable
        block.  A block inside a loop reaches itself, so its full mask —
        including ``a`` and its predecessors — is re-admitted, which is
        exactly the loop-carried case of the per-access formulation.
        """
        rows = [0] * len(self.accesses)
        by_block: Dict[str, List[Access]] = {}
        for access in self.accesses:
            by_block.setdefault(access.block, []).append(access)
        block_mask: Dict[str, int] = {}
        for label, members in by_block.items():
            members.sort(key=lambda a: a.position)
            mask = 0
            for b in members:
                mask |= 1 << b.index
            block_mask[label] = mask
        reach_union: Dict[str, int] = {}
        for label in by_block:
            union = 0
            for other in self._block_reach[label]:
                union |= block_mask.get(other, 0)
            reach_union[label] = union
        for label, members in by_block.items():
            union = reach_union[label]
            # Suffix masks, built back-to-front: strictly-later accesses
            # of the same block.
            suffix = 0
            for b in reversed(members):
                rows[b.index] = suffix | union
                suffix |= 1 << b.index
        # Kept for the structured sweeps below (fold_over_p, the
        # transposed order): same grouping, computed once.
        self._by_block = by_block
        self._block_mask = block_mask
        self._p_pred_cache: Optional[List[int]] = None
        return rows

    def fold_over_p(self, rows: List[int]) -> List[int]:
        """``out[x] = rows[x] | OR of rows[y] over all y with x P y``.

        The back-path engines use this to turn their t-row construction
        (a boolean product of P* with the conflict matrix) into one
        backward sweep per block: per-block row totals cover the
        reachable-block part, and a running suffix OR covers the
        same-block part — O(accesses) big-int ORs instead of one OR per
        set bit of every P* row.
        """
        out = [0] * len(self.accesses)
        block_total: Dict[str, int] = {}
        for label, members in self._by_block.items():
            total = 0
            for b in members:
                total |= rows[b.index]
            block_total[label] = total
        for label, members in self._by_block.items():
            union = 0
            for other in self._block_reach[label]:
                union |= block_total.get(other, 0)
            suffix = 0
            for b in reversed(members):
                out[b.index] = rows[b.index] | suffix | union
                suffix |= rows[b.index]
        return out

    def p_pred_rows(self) -> List[int]:
        """Transposed program order: bit u of row v set iff ``u P v``.

        Built once from the block structure (prefix masks plus the
        reverse block-reachability union) and cached; both back-path
        engines of an analysis share it.
        """
        if self._p_pred_cache is None:
            pred = [0] * len(self.accesses)
            rev_union: Dict[str, int] = {label: 0 for label in self._by_block}
            for source, reachset in self._block_reach.items():
                mask = self._block_mask.get(source, 0)
                if not mask:
                    continue
                for target in reachset:
                    if target in rev_union:
                        rev_union[target] |= mask
            for label, members in self._by_block.items():
                union = rev_union[label]
                prefix = 0
                for b in members:
                    pred[b.index] = prefix | union
                    prefix |= 1 << b.index
            self._p_pred_cache = pred
        return self._p_pred_cache

    def program_order(self, a: Access, b: Access) -> bool:
        """True iff ``a P b`` (some execution path runs a then b)."""
        return bool(self._p_rows[a.index] >> b.index & 1)

    def p_row(self, a: Access) -> int:
        """The bitset of accesses that may follow ``a``."""
        return self._p_rows[a.index]

    def p_pairs(self) -> List[Tuple[Access, Access]]:
        """All ordered pairs in P (the delay-candidate universe)."""
        pairs = []
        for a in self.accesses:
            row = self._p_rows[a.index]
            for b in self.accesses:
                if row >> b.index & 1:
                    pairs.append((a, b))
        return pairs

    def p_pair_count(self) -> int:
        """len(p_pairs()) without materializing the pair list."""
        return sum(bin(row).count("1") for row in self._p_rows)

    def sync_accesses(self) -> List[Access]:
        return [a for a in self.accesses if a.is_sync]

    def data_accesses(self) -> List[Access]:
        return [a for a in self.accesses if not a.is_sync]
