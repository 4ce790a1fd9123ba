"""Delay-set driver tests: the full §4/§5 pipeline on paper examples."""

import inspect
import pickle

import pytest

from repro.analysis.accesses import AccessKind
from repro.analysis.cycle.spmd import BackPathEngine
from repro.analysis.delays import (
    AnalysisLevel,
    AnalysisResult,
    analyze_function,
)
from repro.apps import get_app
from repro.compiler import open_session
from repro.perf import profiled
from tests.helpers import FIGURE_1, FIGURE_5, analyze, delay_pairs


def find(result, kind, var):
    return next(
        a for a in result.accesses
        if a.kind is kind and a.var == var
    )


def has_delay(result, a, b):
    return (a.index, b.index) in result.delays_by_index


class TestFigure1:
    def test_sas_finds_required_delays(self):
        result = analyze(FIGURE_1, AnalysisLevel.SAS)
        w_data = find(result, AccessKind.WRITE, "Data")
        w_flag = find(result, AccessKind.WRITE, "Flag")
        r_flag = find(result, AccessKind.READ, "Flag")
        r_data = find(result, AccessKind.READ, "Data")
        assert has_delay(result, w_data, w_flag)
        assert has_delay(result, r_flag, r_data)

    def test_sync_level_keeps_required_delays(self):
        result = analyze(FIGURE_1, AnalysisLevel.SYNC)
        w_data = find(result, AccessKind.WRITE, "Data")
        w_flag = find(result, AccessKind.WRITE, "Flag")
        r_flag = find(result, AccessKind.READ, "Flag")
        r_data = find(result, AccessKind.READ, "Data")
        assert has_delay(result, w_data, w_flag)
        assert has_delay(result, r_flag, r_data)


class TestFigure5:
    """The paper's headline example: sync analysis removes the
    spurious data-data delays but keeps the sync anchors."""

    def test_sas_has_spurious_data_delays(self):
        result = analyze(FIGURE_5, AnalysisLevel.SAS)
        w_x = find(result, AccessKind.WRITE, "X")
        w_y = find(result, AccessKind.WRITE, "Y")
        r_y = find(result, AccessKind.READ, "Y")
        r_x = find(result, AccessKind.READ, "X")
        assert has_delay(result, w_x, w_y)
        assert has_delay(result, r_y, r_x)

    def test_sync_removes_spurious_delays(self):
        result = analyze(FIGURE_5, AnalysisLevel.SYNC)
        w_x = find(result, AccessKind.WRITE, "X")
        w_y = find(result, AccessKind.WRITE, "Y")
        r_y = find(result, AccessKind.READ, "Y")
        r_x = find(result, AccessKind.READ, "X")
        assert not has_delay(result, w_x, w_y)
        assert not has_delay(result, r_y, r_x)

    def test_sync_keeps_fundamental_delays(self):
        result = analyze(FIGURE_5, AnalysisLevel.SYNC)
        w_x = find(result, AccessKind.WRITE, "X")
        w_y = find(result, AccessKind.WRITE, "Y")
        post = find(result, AccessKind.POST, "F")
        wait = find(result, AccessKind.WAIT, "F")
        r_y = find(result, AccessKind.READ, "Y")
        r_x = find(result, AccessKind.READ, "X")
        assert has_delay(result, w_x, post)
        assert has_delay(result, w_y, post)
        assert has_delay(result, wait, r_y)
        assert has_delay(result, wait, r_x)

    def test_sync_delay_set_smaller(self):
        sas = analyze(FIGURE_5, AnalysisLevel.SAS)
        sync = analyze(FIGURE_5, AnalysisLevel.SYNC)
        assert sync.stats.delay_size < sas.stats.delay_size


class TestFigure9BarrierReadOnly:
    """Figure 9: after a barrier the variable is read-only; the two
    gets need no delay between them (enabling reuse)."""

    SOURCE = """
    shared int X;
    void main() {
      int a; int b;
      if (MYPROC == 0) { X = 5; }
      barrier();
      a = X;
      b = X;
    }
    """

    def test_reads_undelayed_after_barrier(self):
        result = analyze(self.SOURCE, AnalysisLevel.SYNC)
        reads = [
            a for a in result.accesses if a.kind is AccessKind.READ
        ]
        assert not has_delay(result, reads[0], reads[1])

    def test_write_read_ordered_by_phase(self):
        result = analyze(self.SOURCE, AnalysisLevel.SYNC)
        w = find(result, AccessKind.WRITE, "X")
        reads = [a for a in result.accesses if a.kind is AccessKind.READ]
        assert result.precedence.has(w, reads[0])

    def test_concurrent_write_keeps_delay(self):
        source = """
        shared int X;
        void main() {
          int a; int b;
          if (MYPROC == 0) { X = 5; }
          a = X;
          b = X;
        }
        """
        result = analyze(source, AnalysisLevel.SYNC)
        reads = [
            a for a in result.accesses if a.kind is AccessKind.READ
        ]
        # No barrier: the write races the reads, order must hold.
        assert has_delay(result, reads[0], reads[1])


class TestLockRegions:
    SOURCE = """
    shared lock_t l;
    shared int C;
    shared int D;
    void main() {
      lock(l);
      C = 1;
      D = 2;
      unlock(l);
    }
    """

    def test_critical_section_writes_undelayed(self):
        result = analyze(self.SOURCE, AnalysisLevel.SYNC)
        c = find(result, AccessKind.WRITE, "C")
        d = find(result, AccessKind.WRITE, "D")
        assert not has_delay(result, c, d)

    def test_sas_serializes_critical_section(self):
        result = analyze(self.SOURCE, AnalysisLevel.SAS)
        c = find(result, AccessKind.WRITE, "C")
        d = find(result, AccessKind.WRITE, "D")
        assert has_delay(result, c, d)

    def test_writes_must_complete_before_unlock(self):
        result = analyze(self.SOURCE, AnalysisLevel.SYNC)
        c = find(result, AccessKind.WRITE, "C")
        d = find(result, AccessKind.WRITE, "D")
        unlock = find(result, AccessKind.UNLOCK, "l")
        assert has_delay(result, c, unlock)
        assert has_delay(result, d, unlock)


class TestMonotonicity:
    """Sync-aware analysis is a refinement: its delay set never adds a
    data-data delay that Shasha–Snir did not already have."""

    PROGRAMS = [
        FIGURE_1,
        FIGURE_5,
        "shared int A; shared int B;\n"
        "void main() { A = 1; barrier(); int b = B; B = 2; }",
        "shared lock_t l; shared int C;\n"
        "void main() { lock(l); C = C + 1; unlock(l); }",
    ]

    @pytest.mark.parametrize("source", PROGRAMS)
    def test_sync_subset_of_sas_plus_d1(self, source):
        sas = analyze(source, AnalysisLevel.SAS)
        sync = analyze(source, AnalysisLevel.SYNC)
        assert sync.delays_by_index <= (
            sas.delays_by_index | sync.d1
        )


class TestResultContents:
    def test_uid_pairs_match_index_pairs(self):
        result = analyze(FIGURE_1, AnalysisLevel.SAS)
        assert len(result.delay_uid_pairs) == len(result.delays_by_index)

    def test_is_delayed_api(self):
        result = analyze(FIGURE_1, AnalysisLevel.SAS)
        w_data = find(result, AccessKind.WRITE, "Data")
        w_flag = find(result, AccessKind.WRITE, "Flag")
        assert result.is_delayed(w_data.uid, w_flag.uid)
        assert not result.is_delayed(w_flag.uid, w_data.uid)

    def test_stats_populated(self):
        result = analyze(FIGURE_5, AnalysisLevel.SYNC)
        stats = result.stats
        assert stats.num_accesses == 6
        assert stats.num_sync_accesses == 2
        assert stats.delay_size == len(result.delays_by_index)
        assert stats.precedence_size > 0


class TestPureEngine:
    """The engine is a function of (P, C); a result is plain data."""

    def test_engine_takes_accesses_and_conflicts_only(self):
        parameters = inspect.signature(BackPathEngine.__init__).parameters
        assert list(parameters) == ["self", "accesses", "conflicts"]

    def test_result_carries_no_engines_or_pickle_hooks(self):
        assert "engines" not in AnalysisResult.__dataclass_fields__
        # vars(), not hasattr: object itself defines __getstate__.
        for name in ("__getstate__", "__setstate__"):
            assert name not in vars(AnalysisResult), name

    @pytest.mark.parametrize(
        "level", [AnalysisLevel.SAS, AnalysisLevel.SYNC],
        ids=["sas", "sync"],
    )
    def test_result_round_trips_through_pickle(self, level):
        result = analyze(get_app("em3d").source(4), level)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.delays_by_index == result.delays_by_index
        assert clone.delay_uid_pairs == result.delay_uid_pairs
        assert clone.d1 == result.d1
        assert clone.local_dep_uid_pairs == result.local_dep_uid_pairs
        assert clone.stats == result.stats
        assert result.stats.delay_size > 0

    def test_session_still_shares_level_independent_artifacts(self):
        session = open_session(get_app("em3d").source(4))
        with profiled() as prof:
            sas = session.analyze(AnalysisLevel.SAS)
            sync = session.analyze(AnalysisLevel.SYNC)
        counters = prof.to_dict()["counters"]
        assert counters.get("analysis.artifacts_reused", 0) >= 1, counters
        assert sync.accesses is sas.accesses
        assert sync.conflicts is sas.conflicts
