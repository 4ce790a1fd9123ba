"""One-way communication (§6): convert ``put`` to ``store``.

A ``put`` whose every ``sync_ctr`` has propagated to a global
synchronization point — immediately before a ``barrier`` (whose implicit
``all_store_sync`` drains stores) or to the end of the program — needs
no acknowledgement: the write's completion is observed only through the
global synchronization.  The conversion removes the ack message, the
remote node's ack-generation work and the issuer's ack-handling work.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.codegen.splitphase import SplitPhaseInfo
from repro.ir.cfg import BasicBlock, Function
from repro.ir.instructions import Instr, Opcode

#: Opcodes a sync may look past when checking it sits "at" a barrier —
#: other completions and one-way traffic do not observe the put.
_TRANSPARENT = (Opcode.SYNC_CTR, Opcode.STORE_SYNC, Opcode.STORE)


def _sync_reaches_global_sync(block: BasicBlock, index: int) -> bool:
    """Is the sync at ``index`` immediately before a barrier or ret?"""
    for instr in block.instrs[index + 1:]:
        if instr.op is Opcode.BARRIER:
            return True
        if instr.op is Opcode.RET:
            return True
        if instr.op in _TRANSPARENT:
            continue
        return False
    return False


def convert_one_way(function: Function, info: SplitPhaseInfo) -> int:
    """Converts qualifying puts to stores in place; returns the count.

    Runs to fixpoint: converting one put (whose sync was opaque to a
    later put's qualification scan) can let another put qualify.
    """
    converted = 0
    while True:
        placements: Dict[int, List[Tuple[BasicBlock, int]]] = {}
        for block in function.blocks:
            for index, instr in enumerate(block.instrs):
                if instr.op is Opcode.SYNC_CTR and instr.counter is not None:
                    placements.setdefault(instr.counter, []).append(
                        (block, index)
                    )
        # Decide on the current layout, then mutate.
        qualifying: Dict[int, Instr] = {}
        for counter, origin in info.origin.items():
            if origin.op is not Opcode.PUT:
                continue
            syncs = placements.get(counter, [])
            if not syncs:
                continue
            if all(
                _sync_reaches_global_sync(block, index)
                for block, index in syncs
            ):
                qualifying[counter] = origin
        if not qualifying:
            return converted
        for origin in qualifying.values():
            origin.op = Opcode.STORE
            origin.counter = None
        for block in function.blocks:
            block.instrs = [
                instr
                for instr in block.instrs
                if not (
                    instr.op is Opcode.SYNC_CTR
                    and instr.counter in qualifying
                )
            ]
        converted += len(qualifying)
