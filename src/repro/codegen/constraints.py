"""Code-motion legality constraints shared by the codegen passes.

A ``sync_ctr`` for access ``o`` may move past instruction ``a`` unless:

* ``a`` is a shared access or synchronization operation and the delay
  set orders them, ``[o, a] ∈ D`` — the fundamental §6 rule 2(a): ``a``
  must not be *issued* before ``o`` completes;
* ``a`` has a local dependence on ``o`` (same processor, possibly the
  same location, at least one write) — program order through memory
  must hold regardless of the delay set;
* ``o`` is a ``get`` and ``a`` reads or writes its destination register
  — the fetched value must land before uses, and must not clobber a
  later redefinition;
* ``a`` is a call or return — function boundaries are scheduling
  barriers in this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.delays import AnalysisResult
from repro.ir.instructions import Instr, Opcode


@dataclass
class MotionConstraints:
    """Wraps an analysis result with the pass-level legality queries."""

    analysis: AnalysisResult

    def _ordered(self, earlier_uid: int, later_uid: int) -> bool:
        if (earlier_uid, later_uid) in self.analysis.delay_uid_pairs:
            return True
        return (earlier_uid, later_uid) in self.analysis.local_dep_uid_pairs

    def hoist_blocked_by(self, moving: Instr, other: Instr) -> bool:
        """May access ``moving`` not be hoisted above ``other``?

        Used by the reuse pass when moving a second ``get`` backwards:
        the get must not issue before ``other`` completes (delay edge
        ``[other, moving]``), must respect local dependences, and its
        operands must not be defined by ``other``.
        """
        if other.op in (Opcode.CALL, Opcode.RET):
            return True
        if other.is_shared_access or other.is_sync:
            if self._ordered(other.uid, moving.uid):
                return True
        defined = other.defined_temp()
        if defined is not None:
            if any(temp.name == defined.name for temp in moving.used_temps()):
                return True
            dest = moving.dest
            if dest is not None and dest.name == defined.name:
                return True
        return False
