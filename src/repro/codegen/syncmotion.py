"""Sync placement (§6): separate completion from initiation.

The paper's algorithm iteratively *sinks* each ``sync_ctr`` away from
its initiation — propagating block-final syncs to all successors,
merging duplicate copies, and stopping at instructions that carry a
delay or def-use constraint (rules 1, 2a–2c).  We compute the same
result directly:

    the syncs for access ``o`` must execute, on every path, before any
    instruction ``x`` with a constraint ``[o, x]`` — so place one sync
    immediately before every such *observer* that is reachable from
    ``o`` in the CFG (and before every ``ret``).

This is exactly the fixpoint of the paper's motion rules (each sync
stops at the first constrained instruction on its path; idempotent
duplicates merge), but it handles loops gracefully: a completion with
no observer inside a loop migrates past the back edge entirely, giving
fully pipelined gather/scatter loops, while a loop-carried constraint
leaves one sync at the observer inside the body (software pipelining of
distance one).

``sync_ctr`` is idempotent and waits only for *outstanding* operations
on its counter, so executing a placed sync on a path that never issued
the access is a cheap no-op — which is what makes the "copy to every
observer" placement legal (the paper makes the same observation about
its duplicated syncs).

The implementation, :func:`place_syncs`, gives instructions dense
global indices so that block reachability, the §6 observer rules, and
the candidate sweep all become bitset (Python int) intersections: per
counter the work is one mask build plus one AND, instead of one
``sync_blocked_by`` query per (counter × instruction) pair.  That query
and the original per-pair loop are the executable specification it is
tested against — both live in ``tests/codegen/syncmotion_reference.py``, and
``tests/codegen/test_syncmotion_equiv.py`` asserts identical placements
over litmus, the app kernels, and fuzz-generated programs.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.codegen.constraints import MotionConstraints
from repro.codegen.splitphase import SplitPhaseInfo
from repro.ir.cfg import Function
from repro.ir.instructions import Instr, Opcode


def _block_reachability(function: Function) -> Dict[str, Set[str]]:
    """reach[L] = labels reachable from L by a non-empty path."""
    succs = {block.label: block.successors() for block in function.blocks}
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


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _strip_managed_syncs(function: Function, info: SplitPhaseInfo) -> None:
    """Drops every sync the split-phase conversion produced."""
    managed = set(info.origin)
    for block in function.blocks:
        block.instrs = [
            instr
            for instr in block.instrs
            if not (
                instr.op is Opcode.SYNC_CTR and instr.counter in managed
            )
        ]


def _apply_insertions(
    function: Function, insertions: Dict[tuple, List[int]]
) -> None:
    """Applies insertions back-to-front so indices stay valid."""
    by_block: Dict[str, List[tuple]] = {}
    for (label, index), counters in insertions.items():
        by_block.setdefault(label, []).append((index, counters))
    for label, entries in by_block.items():
        block = function.block(label)
        for index, counters in sorted(entries, reverse=True):
            for counter in sorted(counters, reverse=True):
                block.instrs.insert(
                    index, Instr(Opcode.SYNC_CTR, counter=counter)
                )


def place_syncs(
    function: Function,
    constraints: MotionConstraints,
    info: SplitPhaseInfo,
) -> int:
    """Removes the adjacent syncs and re-places them at the delay
    frontier.  Returns the number of placements (a proxy for how much
    motion the constraints permitted)."""
    _strip_managed_syncs(function, info)

    # Dense global instruction indexing: bit g of a mask names the g-th
    # instruction of the (post-strip) function in block order.
    labels: List[str] = []  # g -> block label
    locals_: List[int] = []  # g -> index within its block
    block_start: Dict[str, int] = {}
    block_mask: Dict[str, int] = {}
    uid_to_g: Dict[int, int] = {}

    # Observer masks, built in one scan.  An observer bit is never set
    # on a sync_ctr (rule: syncs do not observe each other) and the
    # per-rule masks mirror ``sync_blocked_by`` in
    # tests/codegen/syncmotion_reference.py exactly.
    callret_mask = 0  # calls/returns block every counter
    shared_uid_mask: Dict[int, int] = {}  # delay-edge target instances
    use_mask: Dict[str, int] = {}  # temp name -> instrs reading it
    def_mask: Dict[str, int] = {}  # temp name -> instrs redefining it
    array_mask: Dict[str, int] = {}  # local array -> touching instrs

    g = 0
    for block in function.blocks:
        block_start[block.label] = g
        for index, instr in enumerate(block.instrs):
            labels.append(block.label)
            locals_.append(index)
            uid_to_g[instr.uid] = g
            if instr.op is not Opcode.SYNC_CTR:
                bit = 1 << g
                if instr.op in (Opcode.CALL, Opcode.RET):
                    callret_mask |= bit
                if instr.is_shared_access or instr.is_sync:
                    shared_uid_mask[instr.uid] = (
                        shared_uid_mask.get(instr.uid, 0) | bit
                    )
                for temp in instr.used_temps():
                    use_mask[temp.name] = use_mask.get(temp.name, 0) | bit
                defined = instr.defined_temp()
                if defined is not None:
                    def_mask[defined.name] = (
                        def_mask.get(defined.name, 0) | bit
                    )
                if instr.op in (Opcode.LOAD_LOCAL, Opcode.STORE_LOCAL):
                    array_mask[instr.var] = array_mask.get(instr.var, 0) | bit
            g += 1
        block_mask[block.label] = (
            ((1 << g) - 1) >> block_start[block.label]
        ) << block_start[block.label]

    # Delay-edge observers, grouped by origin uid in one pass over the
    # delay set instead of one ``sync_blocked_by`` probe
    # (tests/codegen/syncmotion_reference.py) per (origin, instr).
    delay_obs: Dict[int, int] = {}
    for earlier_uid, later_uid in constraints.analysis.delay_uid_pairs:
        targets = shared_uid_mask.get(later_uid)
        if targets:
            delay_obs[earlier_uid] = delay_obs.get(earlier_uid, 0) | targets

    # Union of whole-block masks reachable from each block (a block in
    # a loop reaches itself, which re-admits its earlier instructions —
    # the loop-carried case).
    reach = _block_reachability(function)
    reach_union: Dict[str, int] = {}
    for label in block_mask:
        union = 0
        for other in reach[label]:
            union |= block_mask[other]
        reach_union[label] = union

    insertions: Dict[tuple, List[int]] = {}
    placements = 0
    for counter, origin in info.origin.items():
        origin_g = uid_to_g.get(origin.uid)
        if origin_g is None:
            continue  # the access itself was eliminated
        observers = callret_mask | delay_obs.get(origin.uid, 0)
        if origin.op in (Opcode.GET, Opcode.READ_SHARED):
            dest = origin.dest
            if dest is not None:
                observers |= use_mask.get(dest.name, 0)
                observers |= def_mask.get(dest.name, 0)
            if origin.local_array is not None:
                observers |= array_mask.get(origin.local_array, 0)
        # Reachable-from-origin instructions: strictly later in the
        # origin's own block, plus everything in reachable blocks.
        label = labels[origin_g]
        later_in_block = block_mask[label] & ~((1 << (origin_g + 1)) - 1)
        placed = observers & (later_in_block | reach_union[label])
        for target in _iter_bits(placed):
            key = (labels[target], locals_[target])
            counters = insertions.setdefault(key, [])
            if counter not in counters:
                counters.append(counter)
                placements += 1

    _apply_insertions(function, insertions)
    return placements


#: Backwards-compatible name: the pipeline historically called the
#: iterative sinking algorithm; the frontier placement computes the same
#: fixpoint directly.
sink_syncs = place_syncs
