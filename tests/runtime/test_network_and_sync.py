"""Network model and synchronization-object tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeFault
from repro.runtime.network import (
    FaultPlan,
    Message,
    MsgKind,
    Network,
)
from repro.runtime.sync_objects import FlagTable, LockTable


def msg(src=0, dst=1, kind=MsgKind.GET_REQ):
    return Message(kind, src=src, dst=dst)


class TestNetwork:
    def test_fixed_latency_without_jitter(self):
        net = Network(wire_latency=100, jitter=0, seed=1)
        assert net.send(msg(), now=50) == 150

    def test_jitter_within_bounds(self):
        net = Network(wire_latency=100, jitter=40, seed=7)
        arrivals = [
            net.send(msg(src=0, dst=i % 5), now=0) for i in range(50)
        ]
        # Wire + jitter, plus at most +1 per same-pair FIFO bump
        # (10 messages per destination pair).
        assert all(100 <= a <= 100 + 40 + 10 for a in arrivals)
        assert len(set(arrivals)) > 1  # actually random

    def test_point_to_point_fifo(self):
        net = Network(wire_latency=100, jitter=80, seed=3)
        last = 0
        for i in range(30):
            arrival = net.send(msg(src=0, dst=1), now=i)
            assert arrival > last
            last = arrival

    def test_different_pairs_can_reorder(self):
        net = Network(wire_latency=100, jitter=80, seed=5)
        arrivals = {}
        for dst in range(1, 6):
            arrivals[dst] = net.send(msg(src=0, dst=dst), now=0)
        ordered = sorted(arrivals, key=arrivals.get)
        assert ordered != sorted(arrivals)  # some reordering happened

    def test_stats(self):
        net = Network(wire_latency=10)
        net.send(msg(kind=MsgKind.PUT_REQ), now=0)
        net.send(msg(kind=MsgKind.PUT_REQ), now=0)
        net.send(msg(kind=MsgKind.STORE_REQ), now=0)
        assert net.stats.count(MsgKind.PUT_REQ) == 2
        assert net.stats.total_messages == 3

    def test_seed_reproducibility(self):
        first = Network(wire_latency=10, jitter=100, seed=11)
        second = Network(wire_latency=10, jitter=100, seed=11)
        for i in range(20):
            assert first.send(msg(dst=i % 3), 0) == second.send(
                msg(dst=i % 3), 0
            )


_PROBS = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=300, deadline=None)
@given(st.builds(
    FaultPlan, drop=_PROBS, duplicate=_PROBS,
    seed=st.integers(min_value=-2**63, max_value=2**63),
))
def test_fault_plan_describe_parses_back_to_the_same_plan(plan):
    # ``repro run --faults`` prints this string as its "fault plan:"
    # line, beside ``--fault-seed``; pasting both back must give the
    # same plan, every probability to the last bit.
    assert FaultPlan.parse(plan.describe(), seed=plan.seed) == plan


class TestFlagTable:
    def test_post_then_check(self):
        flags = FlagTable()
        assert not flags.is_posted(("f", 0))
        flags.post(("f", 0))
        assert flags.is_posted(("f", 0))

    def test_post_wakes_waiters(self):
        flags = FlagTable()
        flags.add_waiter(("f", 0), 3)
        flags.add_waiter(("f", 0), 1)
        assert flags.post(("f", 0)) == [3, 1]

    def test_double_post_raises(self):
        flags = FlagTable()
        flags.post(("f", 2))
        with pytest.raises(RuntimeFault):
            flags.post(("f", 2))

    def test_elements_independent(self):
        flags = FlagTable()
        flags.post(("f", 0))
        assert not flags.is_posted(("f", 1))


class TestLockTable:
    def test_acquire_free_lock(self):
        locks = LockTable()
        assert locks.acquire(("l", 0), 2)
        assert locks.holder(("l", 0)) == 2

    def test_contended_acquire_queues(self):
        locks = LockTable()
        assert locks.acquire(("l", 0), 0)
        assert not locks.acquire(("l", 0), 1)
        assert not locks.acquire(("l", 0), 2)

    def test_release_grants_fifo(self):
        locks = LockTable()
        locks.acquire(("l", 0), 0)
        locks.acquire(("l", 0), 1)
        locks.acquire(("l", 0), 2)
        assert locks.release(("l", 0), 0) == 1
        assert locks.release(("l", 0), 1) == 2
        assert locks.release(("l", 0), 2) is None
        assert locks.holder(("l", 0)) is None

    def test_release_by_wrong_holder(self):
        locks = LockTable()
        locks.acquire(("l", 0), 0)
        with pytest.raises(RuntimeFault):
            locks.release(("l", 0), 1)
