"""Static well-formedness verification of split-phase code.

After optimization, the compiled program must satisfy a simple dataflow
property or the runtime will read garbage: **no path may use a get's
destination (register or fused local-array slot) after the get issues
and before a ``sync_ctr`` on its counter runs.**  The pipeline checks
this invariant on every compile (and the property tests hammer it on
random programs); a violation means a compiler bug, reported as
:class:`~repro.errors.CodegenError` at compile time instead of a
confusing runtime fault.

The check is a forward may-analysis over basic blocks: the fact set is
the *pending* gets (counter, landing pad); union confluence makes it
conservative — anything pending on some path counts as pending.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.errors import CodegenError
from repro.ir.cfg import Function
from repro.ir.instructions import Instr, Opcode

#: A pending landing pad: ("temp", name) or ("array", local array name).
Pad = Tuple[str, str]

#: A pending fact: (counter id, landing pad).
Pending = Tuple[int, Pad]


def _pads_used(instr: Instr) -> Set[Pad]:
    """Landing pads this instruction *consumes* (reads)."""
    pads: Set[Pad] = {("temp", t.name) for t in instr.used_temps()}
    if instr.op in (Opcode.LOAD_LOCAL, Opcode.STORE_LOCAL):
        pads.add(("array", instr.var))
    return pads


def _transfer(pending: FrozenSet[Pending], instr: Instr,
              where: str) -> FrozenSet[Pending]:
    """Applies one instruction; raises on a use of a pending pad."""
    used = _pads_used(instr)
    for counter, pad in pending:
        if pad in used:
            raise CodegenError(
                f"{where}: {instr} uses {pad[1]} while get on "
                f"ctr{counter} is still pending — missing sync_ctr "
                "(compiler bug)"
            )
    defined = instr.defined_temp()
    if defined is not None and instr.op is not Opcode.GET:
        for counter, pad in pending:
            if pad == ("temp", defined.name):
                raise CodegenError(
                    f"{where}: {instr} overwrites %{defined.name} while "
                    f"its get on ctr{counter} is pending (the reply "
                    "would clobber the new value — compiler bug)"
                )
    result = set(pending)
    if instr.op is Opcode.SYNC_CTR:
        result = {
            fact for fact in result if fact[0] != instr.counter
        }
    elif instr.op is Opcode.GET:
        if instr.local_array is not None:
            pad: Pad = ("array", instr.local_array)
            # Fused gets may legitimately have several outstanding
            # fetches into *different slots* of one landing array;
            # track the newest fact per pad.
            result = {fact for fact in result if fact[1] != pad}
        else:
            pad = ("temp", instr.dest.name)
            for counter, existing in pending:
                if existing == pad:
                    raise CodegenError(
                        f"{where}: {instr} reissues a get into "
                        f"%{instr.dest.name} while ctr{counter} is "
                        "pending (replies may land out of order — "
                        "compiler bug)"
                    )
        result.add((instr.counter, pad))
    return frozenset(result)


def verify_split_phase(function: Function) -> None:
    """Checks the pending-get invariant; raises CodegenError on failure."""
    block_in: Dict[str, FrozenSet[Pending]] = {
        block.label: frozenset() for block in function.blocks
    }
    worklist = [function.entry.label]
    visited: Set[str] = set()
    while worklist:
        label = worklist.pop()
        visited.add(label)
        pending = block_in[label]
        block = function.block(label)
        where = f"{function.name}/{label}"
        for instr in block.instrs:
            # With nothing pending, only a get can change the state.
            if pending or instr.op is Opcode.GET:
                pending = _transfer(pending, instr, where)
        for succ in block.successors():
            merged = block_in[succ] | pending
            if merged != block_in[succ] or succ not in visited:
                block_in[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)


def verify_counters(function: Function) -> None:
    """Every sync names a counter some initiation actually uses."""
    initiated: Set[Optional[int]] = set()
    for _b, _i, instr in function.instructions():
        if instr.op in (Opcode.GET, Opcode.PUT) and (
            instr.counter is not None
        ):
            initiated.add(instr.counter)
    for _b, _i, instr in function.instructions():
        if instr.op is Opcode.SYNC_CTR:
            if instr.counter not in initiated:
                raise CodegenError(
                    f"{function.name}: sync_ctr(ctr{instr.counter}) has "
                    "no matching initiation"
                )


def verify_compiled(function: Function) -> None:
    """All codegen invariants in one call (used by the pipeline)."""
    function.verify()
    verify_counters(function)
    verify_split_phase(function)
