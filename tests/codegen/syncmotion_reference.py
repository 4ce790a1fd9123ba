"""The original sync placer, kept as the executable specification.

One ``sync_blocked_by`` query per (counter x instruction) pair: slow
and obviously the §6 rules.  The production
placer (``repro.codegen.syncmotion.place_syncs``) must match it
placement-for-placement; ``test_syncmotion_equiv.py`` asserts that on
generated programs and the golden kernels.
"""

from typing import Dict, List

from repro.codegen.constraints import MotionConstraints
from repro.codegen.splitphase import SplitPhaseInfo
from repro.codegen.syncmotion import (
    _apply_insertions,
    _block_reachability,
    _strip_managed_syncs,
)
from repro.ir.cfg import Function
from repro.ir.instructions import Instr, Opcode


def sync_blocked_by(
    constraints: MotionConstraints, origin: Instr, other: Instr
) -> bool:
    """Must the sync for ``origin`` stay before ``other``?

    Note this checks the *delay set* only, not same-processor
    local dependences: initiations are never reordered by the
    codegen, and the runtime network delivers point-to-point
    traffic in order, so a processor's accesses to one location
    are applied in program order without any completion wait
    (Split-C's CM-5 implementation had the same per-destination
    ordering).  Passes that move *initiations* (the reuse pass)
    must — and do — still respect local dependences via
    ``MotionConstraints.hoist_blocked_by``.
    """
    op = other.op
    if op in (Opcode.CALL, Opcode.RET):
        return True
    if other.is_shared_access or other.is_sync:
        if (origin.uid, other.uid) in constraints.analysis.delay_uid_pairs:
            return True
    if origin.op in (Opcode.GET, Opcode.READ_SHARED):
        dest = origin.dest
        if dest is not None:
            if any(temp.name == dest.name for temp in other.used_temps()):
                return True
            defined = other.defined_temp()
            if defined is not None and defined.name == dest.name:
                return True
        if origin.local_array is not None and other.op in (
            Opcode.LOAD_LOCAL,
            Opcode.STORE_LOCAL,
        ):
            # Fused get: the landing pad is a local array element;
            # any touch of that array (whole-array granularity) must
            # wait for the fetch.
            if other.var == origin.local_array:
                return True
    return False


def place_syncs_reference(
    function: Function,
    constraints: MotionConstraints,
    info: SplitPhaseInfo,
) -> int:
    """Drop-in replacement for ``syncmotion.place_syncs``."""
    _strip_managed_syncs(function, info)

    reach = _block_reachability(function)
    positions: Dict[int, tuple] = {}
    for block in function.blocks:
        for index, instr in enumerate(block.instrs):
            positions[instr.uid] = (block.label, index)

    def reachable(origin: Instr, other: Instr) -> bool:
        o_block, o_index = positions[origin.uid]
        x_block, x_index = positions[other.uid]
        if o_block == x_block and o_index < x_index:
            return True
        if x_block in reach[o_block]:
            return True
        return False

    # insertions[(block label, index)] = counters needing a sync there.
    insertions: Dict[tuple, List[int]] = {}
    placements = 0
    for counter, origin in info.origin.items():
        if origin.uid not in positions:
            continue  # the access itself was eliminated
        for block in function.blocks:
            for index, instr in enumerate(block.instrs):
                if instr.op is Opcode.SYNC_CTR:
                    continue
                is_observer = instr.op is Opcode.RET or (
                    sync_blocked_by(constraints, origin, instr)
                )
                if not is_observer:
                    continue
                if not reachable(origin, instr):
                    continue
                key = (block.label, index)
                counters = insertions.setdefault(key, [])
                if counter not in counters:
                    counters.append(counter)
                    placements += 1

    _apply_insertions(function, insertions)
    return placements
