"""Cycle-detection tests: SPMD engine, general oracle, cross-validation."""

import pytest

from repro.analysis.accesses import AccessKind, AccessSet
from repro.analysis.conflicts import ConflictSet
from repro.analysis.cycle.spmd import BackPathEngine
from repro.ir.symrefine import refine_index_metadata
from tests.analysis.general_backpath import GeneralBackPathFinder
from tests.helpers import FIGURE_1, FIGURE_5, inlined


def build(source):
    module = inlined(source)
    refine_index_metadata(module.main)
    accesses = AccessSet(module.main)
    conflicts = ConflictSet(accesses)
    return accesses, conflicts


def find(accesses, kind, var):
    return next(
        a for a in accesses if a.kind is kind and a.var == var
    )


class TestFigure1:
    """The flag/data handshake: both same-processor pairs are delays."""

    def setup_method(self):
        self.accesses, self.conflicts = build(FIGURE_1)
        self.engine = BackPathEngine(self.accesses, self.conflicts)
        self.w_data = find(self.accesses, AccessKind.WRITE, "Data")
        self.w_flag = find(self.accesses, AccessKind.WRITE, "Flag")
        self.r_data = find(self.accesses, AccessKind.READ, "Data")
        self.r_flag = find(self.accesses, AccessKind.READ, "Flag")

    def test_producer_delay(self):
        assert self.engine.has_back_path(self.w_data, self.w_flag)

    def test_consumer_delay(self):
        assert self.engine.has_back_path(self.r_flag, self.r_data)

    def test_delay_set_contains_both(self):
        delays = self.engine.delay_set()
        assert (self.w_data.index, self.w_flag.index) in delays
        assert (self.r_flag.index, self.r_data.index) in delays


class TestNoDelayCases:
    def test_disjoint_variables(self):
        accesses, conflicts = build(
            "shared int X; shared int Y;\n"
            "void main() { if (MYPROC == 0) { X = 1; Y = 2; } }"
        )
        engine = BackPathEngine(accesses, conflicts)
        assert engine.delay_set() == set()

    def test_independent_reads(self):
        accesses, conflicts = build(
            "shared int X; shared int Y;\n"
            "void main() { int a = X; int b = Y; }"
        )
        engine = BackPathEngine(accesses, conflicts)
        assert engine.delay_set() == set()

    def test_figure_4_shape_no_cycle(self):
        # One-directional communication without a reverse path: the
        # figure-eight cannot close.
        accesses, conflicts = build(
            "shared int Data; shared int Flag;\n"
            "void main() {\n"
            "  if (MYPROC == 0) { int d = Data; Flag = 1; }\n"
            "  if (MYPROC == 1) { int f = Flag; int e = Data; }\n"
            "}"
        )
        engine = BackPathEngine(accesses, conflicts)
        # Reads of Data on both sides; writes only to Flag: back-paths
        # need two conflict edges and Data has no writer, so only the
        # Flag edges matter and they cannot form a cycle alone.
        w_flag = find(accesses, AccessKind.WRITE, "Flag")
        r_data0 = next(
            a for a in accesses
            if a.kind is AccessKind.READ and a.var == "Data"
        )
        assert not engine.has_back_path(r_data0, w_flag)


class TestExclusions:
    def test_exclusion_removes_back_path(self):
        accesses, conflicts = build(FIGURE_1)
        engine = BackPathEngine(accesses, conflicts)
        w_data = find(accesses, AccessKind.WRITE, "Data")
        w_flag = find(accesses, AccessKind.WRITE, "Flag")
        r_data = find(accesses, AccessKind.READ, "Data")
        r_flag = find(accesses, AccessKind.READ, "Flag")
        assert engine.has_back_path(w_data, w_flag)
        # Excluding both consumer accesses kills every back-path.
        mask = (1 << r_data.index) | (1 << r_flag.index)
        assert not engine.has_back_path(w_data, w_flag, excluded=mask)

    def test_exclusion_of_unrelated_access_harmless(self):
        accesses, conflicts = build(FIGURE_1)
        engine = BackPathEngine(accesses, conflicts)
        w_data = find(accesses, AccessKind.WRITE, "Data")
        w_flag = find(accesses, AccessKind.WRITE, "Flag")
        assert engine.has_back_path(
            w_data, w_flag, excluded=1 << w_data.index
        )


class TestGeneralOracle:
    def test_finds_figure_1_path(self):
        accesses, conflicts = build(FIGURE_1)
        finder = GeneralBackPathFinder(accesses, conflicts)
        w_data = find(accesses, AccessKind.WRITE, "Data")
        w_flag = find(accesses, AccessKind.WRITE, "Flag")
        path = finder.find_back_path(w_data, w_flag)
        assert path is not None
        # Path runs from w_flag back to w_data.
        assert path[0][0] == w_flag.index
        assert path[-1][0] == w_data.index
        # Endpoints on processor 0, intermediates elsewhere.
        assert path[0][1] == 0 and path[-1][1] == 0
        assert all(proc != 0 for _a, proc in path[1:-1])

    def test_respects_exclusions(self):
        accesses, conflicts = build(FIGURE_1)
        finder = GeneralBackPathFinder(accesses, conflicts)
        w_data = find(accesses, AccessKind.WRITE, "Data")
        w_flag = find(accesses, AccessKind.WRITE, "Flag")
        r_data = find(accesses, AccessKind.READ, "Data")
        r_flag = find(accesses, AccessKind.READ, "Flag")
        assert not finder.has_back_path(
            w_data, w_flag, excluded={r_data.index, r_flag.index}
        )


#: Small programs for SPMD-vs-oracle cross-validation.
CROSS_VALIDATION_PROGRAMS = [
    FIGURE_1,
    FIGURE_5,
    # plain interleaved writes/reads on two scalars
    "shared int A; shared int B;\n"
    "void main() { A = 1; int b = B; B = 2; int a = A; }",
    # a barrier in the middle
    "shared int A; shared int B;\n"
    "void main() { A = 1; barrier(); int b = B; B = 2; }",
    # lock-based critical section
    "shared lock_t l; shared int C;\n"
    "void main() { lock(l); C = C + 1; unlock(l); }",
    # three variables, mixed branches
    "shared int X; shared int Y; shared int Z;\n"
    "void main() {\n"
    "  if (MYPROC == 0) { X = 1; Y = 1; }\n"
    "  else { int y = Y; Z = 2; int x = X; }\n"
    "}",
]


class TestCrossValidation:
    """The fast SPMD engine and the Definition-1 oracle must agree."""

    @pytest.mark.parametrize(
        "source", CROSS_VALIDATION_PROGRAMS,
        ids=[f"prog{i}" for i in range(len(CROSS_VALIDATION_PROGRAMS))],
    )
    def test_delay_sets_agree(self, source):
        accesses, conflicts = build(source)
        fast = BackPathEngine(accesses, conflicts).delay_set()
        oracle = GeneralBackPathFinder(
            accesses, conflicts, num_procs=len(accesses) + 2
        ).delay_set()
        assert fast == oracle
