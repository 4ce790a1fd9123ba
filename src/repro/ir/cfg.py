"""Control-flow graph: basic blocks, functions, modules.

A :class:`Function` owns an ordered list of basic blocks; the first is
the entry.  Every block ends in exactly one terminator (jump, branch or
ret).  :class:`Module` is a whole SPMD program: shared-variable
descriptors plus functions, with ``main`` as the SPMD entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import CodegenError
from repro.ir.instructions import (
    Instr,
    LocalArray,
    Opcode,
    SharedVar,
    Temp,
)


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, label: str):
        self.label = label
        self.instrs: List[Instr] = []

    @property
    def terminator(self) -> Instr:
        if not self.instrs or not self.instrs[-1].is_terminator:
            raise CodegenError(f"block {self.label} has no terminator")
        return self.instrs[-1]

    @property
    def body(self) -> List[Instr]:
        """Instructions excluding the terminator."""
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[:-1]
        return list(self.instrs)

    def successors(self) -> List[str]:
        term = self.terminator
        if term.op is Opcode.JUMP:
            return [term.target]
        if term.op is Opcode.BRANCH:
            if term.true_target == term.false_target:
                return [term.true_target]
            return [term.true_target, term.false_target]
        return []

    def append(self, instr: Instr) -> None:
        if self.instrs and self.instrs[-1].is_terminator:
            raise CodegenError(
                f"appending {instr.op.value!r} after terminator in {self.label}"
            )
        self.instrs.append(instr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.label} ({len(self.instrs)} instrs)>"


class Function:
    """A function in CFG form."""

    def __init__(self, name: str, params: Optional[List[Temp]] = None,
                 returns_value: bool = False):
        self.name = name
        self.params: List[Temp] = list(params or [])
        self.returns_value = returns_value
        self.blocks: List[BasicBlock] = []
        self._blocks_by_label: Dict[str, BasicBlock] = {}
        self.local_arrays: Dict[str, LocalArray] = {}
        self._next_label = 0
        self._next_temp = 0

    # -- construction ---------------------------------------------------

    def new_block(self, hint: str = "bb") -> BasicBlock:
        block = BasicBlock(self.fresh_label(hint))
        self.adopt_block(block)
        return block

    def adopt_block(self, block: BasicBlock) -> None:
        """Adds an externally-created block (used by the inliner)."""
        if block.label in self._blocks_by_label:
            raise CodegenError(f"duplicate block label {block.label}")
        self.blocks.append(block)
        self._blocks_by_label[block.label] = block

    def new_temp(self, hint: str = "t") -> Temp:
        index = self._next_temp
        self._next_temp = index + 1
        return Temp(f"{hint}.{index}")

    def fresh_label(self, hint: str = "bb") -> str:
        index = self._next_label
        self._next_label = index + 1
        return f"{hint}{index}"

    def copy(self) -> "Function":
        """An independent copy: new blocks and instructions (labels and
        uids kept), and the label/temp counters carried over so names
        minted on the copy continue where the original stopped."""
        clone = Function(self.name, self.params, self.returns_value)
        for block in self.blocks:
            twin = BasicBlock(block.label)
            twin.instrs = [instr.copy() for instr in block.instrs]
            clone.adopt_block(twin)
        clone.local_arrays = dict(self.local_arrays)
        clone._next_label = self._next_label
        clone._next_temp = self._next_temp
        return clone

    # -- queries ----------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise CodegenError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block(self, label: str) -> BasicBlock:
        return self._blocks_by_label[label]

    def has_block(self, label: str) -> bool:
        return label in self._blocks_by_label

    def instructions(self) -> Iterator[Tuple[BasicBlock, int, Instr]]:
        """Yields (block, index, instr) over the whole function."""
        for block in self.blocks:
            for index, instr in enumerate(block.instrs):
                yield block, index, instr

    def find_instr(self, uid: int) -> Optional[Tuple[BasicBlock, int, Instr]]:
        for block, index, instr in self.instructions():
            if instr.uid == uid:
                return block, index, instr
        return None

    def predecessors(self) -> Dict[str, List[str]]:
        preds: Dict[str, List[str]] = {block.label: [] for block in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block.label)
        return preds

    # -- maintenance ------------------------------------------------------

    def remove_unreachable_blocks(self) -> int:
        """Drops blocks not reachable from entry; returns count removed."""
        reachable: Set[str] = set()
        stack = [self.entry.label]
        while stack:
            label = stack.pop()
            if label in reachable:
                continue
            reachable.add(label)
            stack.extend(self.block(label).successors())
        removed = [b for b in self.blocks if b.label not in reachable]
        self.blocks = [b for b in self.blocks if b.label in reachable]
        for block in removed:
            del self._blocks_by_label[block.label]
        return len(removed)

    def verify(self) -> None:
        """Checks structural invariants; raises CodegenError on failure."""
        seen_labels: Set[str] = set()
        for block in self.blocks:
            if block.label in seen_labels:
                raise CodegenError(f"duplicate block {block.label}")
            seen_labels.add(block.label)
            if not block.instrs:
                raise CodegenError(f"empty block {block.label}")
            for instr in block.instrs[:-1]:
                if instr.is_terminator:
                    raise CodegenError(
                        f"terminator in the middle of block {block.label}"
                    )
            if not block.instrs[-1].is_terminator:
                raise CodegenError(f"block {block.label} lacks a terminator")
            for succ in block.successors():
                if succ not in self._blocks_by_label:
                    raise CodegenError(
                        f"block {block.label} jumps to unknown label {succ}"
                    )

    def __str__(self) -> str:
        lines = [f"func {self.name}({', '.join(str(p) for p in self.params)}):"]
        for array in self.local_arrays.values():
            dims = "".join(f"[{d}]" for d in array.dims)
            lines.append(f"  local {array.kind.value} {array.name}{dims}")
        for block in self.blocks:
            lines.append(f"{block.label}:")
            for instr in block.instrs:
                lines.append(f"  {instr}")
        return "\n".join(lines)


@dataclass
class Module:
    """A whole SPMD program in IR form."""

    shared_vars: Dict[str, SharedVar] = field(default_factory=dict)
    functions: Dict[str, Function] = field(default_factory=dict)

    @property
    def main(self) -> Function:
        return self.functions["main"]

    def shared(self, name: str) -> SharedVar:
        return self.shared_vars[name]

    def verify(self) -> None:
        for function in self.functions.values():
            function.verify()

    def copy(self) -> "Module":
        """A copy no mutation of which can reach this module.

        Containers and instructions are new; what instructions point at
        (operands, index metadata, variable descriptors, locations) is
        shared — every such object is a frozen dataclass or a tuple.
        """
        functions = {n: f.copy() for n, f in self.functions.items()}
        return Module(dict(self.shared_vars), functions)

    def __str__(self) -> str:
        parts = []
        for var in self.shared_vars.values():
            dims = "".join(f"[{d}]" for d in var.dims)
            parts.append(
                f"shared {var.kind.value} {var.name}{dims} "
                f"dist({var.distribution.value})"
            )
        for function in self.functions.values():
            parts.append(str(function))
        return "\n".join(parts)
