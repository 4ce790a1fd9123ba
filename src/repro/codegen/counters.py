"""Synchronizing-counter allocation (§6).

Split-phase conversion gives every access its own counter; real Split-C
programs reuse a small pool ("where counter is either a new or reused
synchronizing counter").  Two counters can share a physical id unless
they are ever *live at the same program point with different sync
obligations*: merging live-overlapping counters makes a ``sync_ctr``
wait for the union of their outstanding operations — which is always
*correct* (waiting longer never breaks a delay) but can serialize
unrelated pipelines, so we only merge counters whose live (pending)
ranges never overlap.

Liveness here is the same forward may-analysis the verifier uses: a
counter is live from an initiation tagged with it to the syncs naming
it.  Live sets and interference rows are packed ints (DESIGN.md §7),
one bit per counter in counter-id order.  Interfering counters get
distinct colors by first-fit coloring in counter-id order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.codegen.syncmotion import _iter_bits
from repro.ir.cfg import Function
from repro.ir.instructions import Opcode

_TAGGED = (Opcode.GET, Opcode.PUT, Opcode.SYNC_CTR)


def _interference_rows(
    function: Function, bit_of: Dict[int, int]
) -> List[int]:
    """Per counter position: the mask of counters it interferes with.

    Every pair of simultaneously live counters interferes.  A live set
    only gains pairs where it changes, so rows are touched at three
    kinds of point: a block entry (the union over predecessors can
    pair counters no single predecessor had live together), an
    initiation of a not-yet-live counter, and a ``sync_ctr`` of a
    counter that is not live — merging X into a live Y would turn that
    (possibly no-op) sync into a wait for Y's outstanding traffic, a
    legal but serializing change.  A counter live across its *own*
    re-initiation (loops) stays valid — same id, union semantics — so
    there is no self-interference.
    """
    # Per block, in program order: (is a sync, the counter's bit).
    ops = {
        block.label: [
            (instr.op is Opcode.SYNC_CTR, bit_of[instr.counter])
            for instr in block.instrs
            if instr.counter is not None and instr.op in _TAGGED
        ]
        for block in function.blocks
    }
    block_in = dict.fromkeys(ops, 0)
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            live = block_in[block.label]
            for is_sync, bit in ops[block.label]:
                live = live & ~bit if is_sync else live | bit
            for succ in block.successors():
                if live & ~block_in[succ]:
                    block_in[succ] |= live
                    changed = True

    rows = [0] * len(bit_of)
    for label, block_ops in ops.items():
        live = block_in[label]
        for position in _iter_bits(live):
            rows[position] |= live ^ (1 << position)
        for is_sync, bit in block_ops:
            if not live & bit:
                rows[bit.bit_length() - 1] |= live
                for position in _iter_bits(live):
                    rows[position] |= bit
            live = live & ~bit if is_sync else live | bit
    return rows


def coalesce_counters(function: Function) -> Tuple[int, int]:
    """Renumbers counters into a minimal pool; returns (before, after).

    Counters interfere when simultaneously live; non-interfering
    counters share a physical id.  Rewrites GET/PUT/SYNC_CTR counters in
    place (STOREs carry no counter).
    """
    tagged = [
        instr
        for _b, _i, instr in function.instructions()
        if instr.counter is not None and instr.op in _TAGGED
    ]
    if not tagged:
        return (0, 0)
    bit_of = {
        counter: 1 << position
        for position, counter in enumerate(
            sorted({instr.counter for instr in tagged})
        )
    }
    rows = _interference_rows(function, bit_of)

    # pools[k] = the counters sharing physical id k + 1.
    pools: List[int] = []
    color: Dict[int, int] = {}
    for (counter, bit), row in zip(bit_of.items(), rows):
        slot = 0
        while slot < len(pools) and row & pools[slot]:
            slot += 1
        if slot == len(pools):
            pools.append(0)
        pools[slot] |= bit
        color[counter] = slot + 1
    for instr in tagged:
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
    return (len(bit_of), len(pools))
