"""Calendar-queue and link-ring unit tests (the batched engine's core)."""

import pytest

from repro.errors import RuntimeFault
from repro.runtime.events import CalendarQueue, LinkChannels


class TestCalendarQueue:
    def test_batches_pop_in_time_order(self):
        q = CalendarQueue()
        q.push(30, ("c",))
        q.push(10, ("a",))
        q.push(20, ("b",))
        times = []
        while q:
            time, batch = q.pop_batch()
            times.append((time, list(batch)))
            q.retire(time)
        assert times == [
            (10, [("a",)]), (20, [("b",)]), (30, [("c",)]),
        ]

    def test_fifo_within_a_timestamp(self):
        # The seed heap tie-broke equal times with a monotonically
        # increasing seq — i.e. insertion order.  The bucket list must
        # reproduce exactly that.
        q = CalendarQueue()
        for i in range(100):
            q.push(5, ("p", i))
        time, batch = q.pop_batch()
        assert time == 5
        assert [payload[1] for payload in batch] == list(range(100))

    def test_same_time_push_lands_on_live_batch(self):
        # Mid-dispatch pushes at the current timestamp must append to
        # the batch being drained, not get lost or resurface later.
        q = CalendarQueue()
        q.push(7, ("first",))
        time, batch = q.pop_batch()
        q.push(7, ("second",))
        assert batch == [("first",), ("second",)]
        q.retire(time)
        assert not q

    def test_push_into_the_past_faults(self):
        q = CalendarQueue()
        q.push(10, ("a",))
        q.pop_batch()
        with pytest.raises(RuntimeFault, match="scheduled into the past"):
            q.push(9, ("stale",))

    def test_push_at_now_allowed(self):
        q = CalendarQueue()
        q.push(10, ("a",))
        q.pop_batch()
        q.push(10, ("ok",))  # equal to now: legal (same-batch append)

    def test_len_counts_pending_payloads(self):
        q = CalendarQueue()
        assert len(q) == 0 and not q
        q.push(1, ("a",))
        q.push(1, ("b",))
        q.push(2, ("c",))
        assert len(q) == 3 and q


class TestLinkChannels:
    def test_enqueue_returns_cached_payload(self):
        links = LinkChannels()
        first = links.enqueue((0, 1), "m1")
        second = links.enqueue((0, 1), "m2")
        assert first is second  # one shared tuple per link, no per-msg alloc
        assert first[0] == "link"

    def test_ring_preserves_fifo(self):
        links = LinkChannels()
        for i in range(5):
            payload = links.enqueue((2, 3), i)
        ring = payload[1]
        assert [ring.popleft() for _ in range(5)] == list(range(5))

    def test_links_are_independent(self):
        links = LinkChannels()
        a = links.enqueue((0, 1), "x")
        b = links.enqueue((1, 0), "y")
        assert a is not b
        assert list(a[1]) == ["x"] and list(b[1]) == ["y"]
        a[1].popleft()
        assert list(b[1]) == ["y"]
