"""Sequential-consistency checker tests (litmus-style traces)."""

import pytest

from repro import OptLevel, compile_source
from repro.apps import APPS
from repro.runtime import CM5, run_module
from repro.runtime.consistency import (
    StepLimitExceeded,
    find_violation_witness,
    is_sequentially_consistent,
)
from repro.runtime.trace import ExecutionTrace
from tests.helpers import inlined


def trace_of(*per_proc):
    """Builds a trace from per-processor ('r'/'w', loc, value) lists."""
    trace = ExecutionTrace(len(per_proc))
    for proc, events in enumerate(per_proc):
        for op, loc, value in events:
            if op == "w":
                trace.record_write(proc, loc, value)
            else:
                event = trace.record_read_issue(proc, loc)
                event.value = value
    return trace


X = ("X", 0)
Y = ("Y", 0)


class TestBasicCases:
    def test_empty_trace(self):
        assert is_sequentially_consistent(ExecutionTrace(2))

    def test_single_write_read(self):
        trace = trace_of([("w", X, 1)], [("r", X, 1)])
        assert is_sequentially_consistent(trace)

    def test_read_of_initial_zero(self):
        trace = trace_of([("w", X, 1)], [("r", X, 0)])
        assert is_sequentially_consistent(trace)  # read ordered first

    def test_read_of_never_written_value(self):
        trace = trace_of([("w", X, 1)], [("r", X, 7)])
        assert not is_sequentially_consistent(trace)

    def test_custom_initial_value(self):
        trace = trace_of([("r", X, 9)])
        assert is_sequentially_consistent(trace, initial={X: 9})
        assert not is_sequentially_consistent(trace)


class TestMessagePassingLitmus:
    """The Figure 1 pattern: Flag=1 observed implies Data=1."""

    def test_consistent_outcomes(self):
        for flag, data in [(0, 0), (0, 1), (1, 1)]:
            trace = trace_of(
                [("w", X, 1), ("w", Y, 1)],          # X=Data, Y=Flag
                [("r", Y, flag), ("r", X, data)],
            )
            assert is_sequentially_consistent(trace), (flag, data)

    def test_violating_outcome(self):
        trace = trace_of(
            [("w", X, 1), ("w", Y, 1)],
            [("r", Y, 1), ("r", X, 0)],
        )
        assert not is_sequentially_consistent(trace)

    def test_witness_message(self):
        trace = trace_of(
            [("w", X, 1), ("w", Y, 1)],
            [("r", Y, 1), ("r", X, 0)],
        )
        witness = find_violation_witness(trace)
        assert witness is not None
        assert "P0" in witness and "P1" in witness

    def test_no_witness_when_consistent(self):
        trace = trace_of([("w", X, 1)], [("r", X, 1)])
        assert find_violation_witness(trace) is None


class TestStoreBufferLitmus:
    """Dekker's pattern: both reads returning 0 is not SC."""

    def test_both_zero_violates(self):
        trace = trace_of(
            [("w", X, 1), ("r", Y, 0)],
            [("w", Y, 1), ("r", X, 0)],
        )
        assert not is_sequentially_consistent(trace)

    def test_one_zero_ok(self):
        trace = trace_of(
            [("w", X, 1), ("r", Y, 0)],
            [("w", Y, 1), ("r", X, 1)],
        )
        assert is_sequentially_consistent(trace)


class TestCoherence:
    def test_write_order_agreement(self):
        # Two readers must not observe two writes in opposite orders.
        trace = trace_of(
            [("w", X, 1)],
            [("w", X, 2)],
            [("r", X, 1), ("r", X, 2)],
            [("r", X, 2), ("r", X, 1)],
        )
        assert not is_sequentially_consistent(trace)

    def test_same_order_ok(self):
        trace = trace_of(
            [("w", X, 1)],
            [("w", X, 2)],
            [("r", X, 1), ("r", X, 2)],
            [("r", X, 1), ("r", X, 2)],
        )
        assert is_sequentially_consistent(trace)

    def test_read_own_write(self):
        trace = trace_of(
            [("w", X, 1), ("r", X, 2)],
            [("w", X, 2)],
        )
        assert is_sequentially_consistent(trace)


class TestIriw:
    """Independent reads of independent writes."""

    def test_iriw_violation(self):
        trace = trace_of(
            [("w", X, 1)],
            [("w", Y, 1)],
            [("r", X, 1), ("r", Y, 0)],
            [("r", Y, 1), ("r", X, 0)],
        )
        assert not is_sequentially_consistent(trace)

    def test_iriw_allowed(self):
        trace = trace_of(
            [("w", X, 1)],
            [("w", Y, 1)],
            [("r", X, 1), ("r", Y, 0)],
            [("r", Y, 0), ("r", X, 1)],
        )
        assert is_sequentially_consistent(trace)


class TestStepLimit:
    def _big_trace(self):
        return trace_of(
            [("w", X, i) for i in range(8)],
            [("w", X, i + 100) for i in range(8)],
        )

    def test_limit_raises(self):
        with pytest.raises(RuntimeError):
            is_sequentially_consistent(self._big_trace(), step_limit=10)

    def test_limit_raises_dedicated_type(self):
        # Callers distinguish "too big to decide" from a violation by
        # catching StepLimitExceeded specifically (the fuzz SC oracle
        # counts these as skips, never as passes).
        with pytest.raises(StepLimitExceeded):
            is_sequentially_consistent(self._big_trace(), step_limit=10)
        assert issubclass(StepLimitExceeded, RuntimeError)

    def test_limit_message_names_the_limit(self):
        with pytest.raises(StepLimitExceeded) as exc:
            is_sequentially_consistent(self._big_trace(), step_limit=10)
        assert "10" in str(exc.value)

    def test_generous_limit_still_decides(self):
        trace = trace_of(
            [("w", X, 1), ("r", Y, 0)],
            [("w", Y, 1), ("r", X, 0)],
        )
        assert not is_sequentially_consistent(trace, step_limit=100_000)


class TestSearchScale:
    def test_long_trace_does_not_recurse(self):
        # 1 400 racing writes: a search that recursed once per event
        # would exhaust Python's recursion limit here.
        trace = trace_of(
            [("w", X, i) for i in range(700)],
            [("w", X, i + 1000) for i in range(700)],
        )
        assert is_sequentially_consistent(trace, step_limit=20_000)

    @pytest.mark.parametrize("level", (OptLevel.O0, OptLevel.O3))
    @pytest.mark.parametrize("kernel", sorted(APPS))
    def test_traced_kernel_decided_in_two_steps_per_event(self, kernel,
                                                          level):
        """Each §8 kernel's traced run at 8 processors is accepted
        within two search steps per event.  Trying the processor that
        moved last first is what makes this hold: with a fixed
        ``range(n)`` move order the search gives up on epithelial and
        ocean at this limit."""
        program = compile_source(APPS[kernel].source(8), level)
        trace = program.run(8, machine=CM5, trace=True).trace
        assert is_sequentially_consistent(
            trace, step_limit=2 * trace.total_length()
        )


class TestTracedRuns:
    """Traces of simulated runs, as run and with one value forged."""

    FIGURE_ONE = (
        "shared int Data; shared flag_t Flag;\n"
        "void main() {\n"
        "  if (MYPROC == 0) { Data = 7; post(Flag); }\n"
        "  else { wait(Flag); Data = Data + 1; }\n"
        "}\n"
    )

    def _traced(self, source, procs=2):
        return run_module(inlined(source), procs, CM5, trace=True).trace

    def test_figure_one_pattern(self):
        trace = self._traced(self.FIGURE_ONE)
        assert [str(e) for e in trace.per_proc[1]] == [
            "P1:r Data[0]=7", "P1:w Data[0]=8",
        ]
        assert is_sequentially_consistent(trace)

    def test_barrier_program(self):
        trace = self._traced(
            "shared int A[4]; shared int B[4];\n"
            "void main() {\n"
            "  A[MYPROC] = MYPROC;\n"
            "  barrier();\n"
            "  B[MYPROC] = A[(MYPROC + 1) % PROCS] + 10;\n"
            "}\n",
            procs=4,
        )
        assert trace.total_length() == 12
        assert is_sequentially_consistent(trace)

    def test_racy_trace(self):
        # Nothing orders P1's read against P0's write: either value
        # it reads has an SC witness.
        trace = self._traced(
            "shared int Data; shared int Seen;\n"
            "void main() {\n"
            "  if (MYPROC == 0) { Data = 7; } else { Seen = Data; }\n"
            "}\n"
        )
        assert trace.per_proc[1][0].value in (0, 7)
        assert is_sequentially_consistent(trace)

    def test_non_sc_trace(self):
        trace = self._traced(self.FIGURE_ONE)
        trace.per_proc[1][0].value = 5  # a value no access wrote
        assert not is_sequentially_consistent(trace)
