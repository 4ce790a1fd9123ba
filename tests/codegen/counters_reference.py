"""The original set-based counter allocator, kept as the executable
specification.

A frozenset liveness with one set rebuild per instruction, then every
pair of ``sorted(live)`` inserted at every program point: cubic on the
barrier ladder and obviously the §6 rule.  The production allocator
(``repro.codegen.counters.coalesce_counters``) must match it counter
for counter; ``test_counters_equiv.py`` asserts that on the kernels,
generated programs and the ladder.
"""

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.ir.cfg import Function
from repro.ir.instructions import Opcode


def _live_counter_sets(
    function: Function,
) -> List[Tuple[FrozenSet[int], "int | None"]]:
    """Per instruction point: (live counters, sync target here or None).

    A point's live set holds the counters pending *just before* the
    instruction executes; when the instruction is a ``sync_ctr`` its
    counter is also reported so the allocator can see syncs that fall
    inside other counters' live ranges.
    """
    block_in: Dict[str, FrozenSet[int]] = {
        block.label: frozenset() for block in function.blocks
    }
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            live = block_in[block.label]
            for instr in block.instrs:
                if instr.op in (Opcode.GET, Opcode.PUT) and (
                    instr.counter is not None
                ):
                    live = live | {instr.counter}
                elif instr.op is Opcode.SYNC_CTR:
                    live = live - {instr.counter}
            for succ in block.successors():
                merged = block_in[succ] | live
                if merged != block_in[succ]:
                    block_in[succ] = merged
                    changed = True

    points: List[Tuple[FrozenSet[int], "int | None"]] = []
    for block in function.blocks:
        live = block_in[block.label]
        for instr in block.instrs:
            syncing = (
                instr.counter if instr.op is Opcode.SYNC_CTR else None
            )
            points.append((live, syncing))
            if instr.op in (Opcode.GET, Opcode.PUT) and (
                instr.counter is not None
            ):
                live = live | {instr.counter}
            elif instr.op is Opcode.SYNC_CTR:
                live = live - {instr.counter}
    return points


def coalesce_counters_reference(function: Function) -> Tuple[int, int]:
    """Renumbers counters into a minimal pool; returns (before, after).

    Counters interfere when simultaneously live; non-interfering
    counters share a physical id.  Rewrites GET/PUT/SYNC_CTR counters in
    place (STOREs carry no counter).
    """
    all_counters: Set[int] = set()
    for _b, _i, instr in function.instructions():
        if instr.counter is not None and instr.op in (
            Opcode.GET, Opcode.PUT, Opcode.SYNC_CTR
        ):
            all_counters.add(instr.counter)
    if not all_counters:
        return (0, 0)

    interference: Dict[int, Set[int]] = {c: set() for c in all_counters}
    for live, syncing in _live_counter_sets(function):
        members = sorted(live)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                interference[a].add(b)
                interference[b].add(a)
        if syncing is not None:
            # A sync of X inside Y's live range: merging X and Y would
            # turn this (possibly no-op) sync into a wait for Y's
            # outstanding traffic — a legal but serializing change.
            for other in live:
                if other != syncing:
                    interference[syncing].add(other)
                    interference[other].add(syncing)

    # Also: a counter live across its *own* re-initiation (loops) stays
    # valid — same id, union semantics — so no self-interference.

    color: Dict[int, int] = {}
    for counter in sorted(all_counters):
        taken = {
            color[other]
            for other in interference[counter]
            if other in color
        }
        slot = 1
        while slot in taken:
            slot += 1
        color[counter] = slot

    for _b, _i, instr in function.instructions():
        if instr.counter is not None and instr.op in (
            Opcode.GET, Opcode.PUT, Opcode.SYNC_CTR
        ):
            instr.counter = color[instr.counter]

    # Peephole: coalescing can leave runs of identical syncs (several
    # logical counters now share an id); keep one of each run.
    for block in function.blocks:
        deduped = []
        for instr in block.instrs:
            if (
                deduped
                and instr.op is Opcode.SYNC_CTR
                and deduped[-1].op is Opcode.SYNC_CTR
                and deduped[-1].counter == instr.counter
            ):
                continue
            deduped.append(instr)
        block.instrs = deduped
    return (len(all_counters), len(set(color.values())))
