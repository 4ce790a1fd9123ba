"""The reliability protocol, driven directly.

A stub simulator records what :class:`repro.runtime.network.Transport`
schedules and what it hands to the message handlers; each test feeds
back the arrivals it chooses, in the order it chooses — duplicated,
reordered, lost.  The end-to-end runs in ``test_faults.py`` and the
lossy cells of the runtime golden table reach these rules only through
whole programs; the last test here proves those cells notice when one
rule is broken.
"""

import inspect

import pytest

from repro.errors import NetworkFault, RuntimeFault
from repro.runtime import CM5, network, simulator
from repro.runtime.network import (
    RETRY_CAP,
    FaultPlan,
    Message,
    MsgKind,
    Network,
    Transport,
)
from tests.runtime import test_runtime_golden as golden_table


class StubSim:
    """All a transport uses of its simulator: a queue and the handlers."""

    def __init__(self):
        self.events = []  # (time, payload), in push order
        self.delivered = []  # (time, message), in handler order

    def _push(self, time, payload):
        self.events.append((time, payload))

    def _handle_message(self, now, msg):
        self.delivered.append((now, msg))


def make(plan=FaultPlan()):
    sim = StubSim()
    net = Network(CM5.wire_latency, 0, seed=0, plan=plan)
    return Transport(net, CM5, sim), net, sim


def take(sim, what):
    """Removes the scheduled ``what`` events ("data", "ack" or
    "timer") from the stub's queue and returns them in push order."""
    picked = [event for event in sim.events if event[1][1] == what]
    sim.events = [event for event in sim.events if event[1][1] != what]
    return picked


def delivered(sim):
    return [msg for _time, msg in sim.delivered]


def test_timeout_strictly_exceeds_the_worst_round_trip():
    transport, _net, _sim = make()
    # 2 * (wire + jitter) + remote_handle + send + recv + slack
    assert transport.base_timeout == 2 * (150 + 0) + 30 + 35 + 35 + 16


def test_duplicate_is_suppressed_and_counted():
    transport, net, sim = make(FaultPlan(duplicate=1.0))
    put = Message(MsgKind.PUT_REQ, src=0, dst=1, value=7)
    transport.send(put, 0)
    copies = take(sim, "data")
    assert len(copies) == 2  # the wire duplicated the envelope
    for event in copies:
        transport.handle(*event)
    assert delivered(sim) == [put]
    assert net.stats.duplicates_suppressed == 1
    # Both copies are acked (a retransmitting sender may have lost the
    # first ack), and the wire duplicates each ack as well.
    acks = take(sim, "ack")
    assert len(acks) == 4
    for event in acks:
        transport.handle(*event)
    assert transport.forensics() == ["  unacked envelopes: none"]
    assert net.stats.duplicates == 3  # the envelope and both acks


def test_out_of_order_envelopes_are_held_then_released_in_order_once():
    transport, net, sim = make()
    sent = [
        Message(MsgKind.STORE_REQ, src=2, dst=3, value=i) for i in range(3)
    ]
    for time, msg in enumerate(sent):
        transport.send(msg, time)
    first, second, third = take(sim, "data")
    transport.handle(*third)
    transport.handle(*second)
    assert delivered(sim) == []  # held above the missing seq 0
    transport.handle(*first)
    assert delivered(sim) == sent
    assert {time for time, _msg in sim.delivered} == {first[0]}
    # A late copy of a released envelope is a duplicate, not a fourth
    # delivery.
    transport.handle(*second)
    assert delivered(sim) == sent
    assert net.stats.duplicates_suppressed == 1


def test_cumulative_ack_clears_an_envelope_whose_own_ack_was_lost():
    transport, net, sim = make()
    first = Message(MsgKind.PUT_REQ, src=0, dst=1, value=1)
    second = Message(MsgKind.PUT_REQ, src=0, dst=1, value=2)
    transport.send(first, 0)
    transport.send(second, 0)
    _lost, second_data = take(sim, "data")
    first_timer, second_timer = take(sim, "timer")
    transport.handle(*first_timer)  # first goes out a second time
    assert net.stats.retransmits == 1
    [retry] = take(sim, "data")
    transport.handle(*retry)
    transport.handle(*second_data)
    assert delivered(sim) == [first, second]
    _first_ack, second_ack = take(sim, "ack")  # first's only ack dies
    transport.handle(*second_ack)
    assert transport.forensics() == ["  unacked envelopes: none"]
    # Every timer still pending is now stale.
    [retry_timer] = take(sim, "timer")
    for timer in (second_timer, retry_timer):
        transport.handle(*timer)
    assert sim.events == []
    assert net.stats.retransmits == 1


def test_stale_timer_is_a_no_op():
    transport, net, sim = make()
    transport.send(Message(MsgKind.GET_REQ, src=1, dst=0), 0)
    [data] = take(sim, "data")
    transport.handle(*data)
    [ack] = take(sim, "ack")
    transport.handle(*ack)
    [timer] = take(sim, "timer")
    transport.handle(*timer)
    assert sim.events == []
    assert net.stats.retransmits == 0
    assert transport.forensics() == ["  unacked envelopes: none"]


def test_exhausted_retry_cap_raises_network_fault():
    transport, net, sim = make(FaultPlan(drop=1.0))
    store = Message(MsgKind.STORE_REQ, src=0, dst=1)
    transport.send(store, 0)
    base = transport.base_timeout
    fired = []
    for _ in range(RETRY_CAP):  # every retransmission dropped
        [timer] = take(sim, "timer")
        fired.append(timer[0])
        transport.handle(*timer)
    [timer] = take(sim, "timer")
    fired.append(timer[0])
    # The backoff doubles per attempt, up to 64x the base timeout.
    gaps = [b - a for a, b in zip([0] + fired, fired)]
    assert gaps == [base * 2 ** min(n, 6) for n in range(RETRY_CAP + 1)]
    assert take(sim, "data") == []
    assert net.stats.drops == RETRY_CAP + 1
    with pytest.raises(NetworkFault) as info:
        transport.handle(*timer)
    fault = info.value
    attempts = RETRY_CAP + 1
    assert str(fault) == (
        f"P0: store_req to P1 undeliverable after {attempts} transmissions "
        f"(seq 0, retry cap {RETRY_CAP})"
    )
    assert fault.undeliverable is store
    assert fault.link == (0, 1)
    assert fault.attempts == attempts
    assert transport.forensics() == [
        f"  unacked envelope 0->1 seq 0 (store_req, {attempts} "
        "transmission(s))"
    ]


# -- teeth for the lossy oracles ---------------------------------------------

#: One-line source mutants of the protocol: (anchor, replacement).
MUTANTS = {
    # The receiver trusts arrival order: each arrival fills the next
    # expected slot and is released at once.
    "no_reorder_buffer": (
        "link.held[seq] = msg", "link.held[link.expected] = msg",
    ),
    # A duplicate is handed to the handlers instead of suppressed.
    "no_duplicate_suppression": (
        "self.network.stats.duplicates_suppressed += 1",
        "self.sim._handle_message(now, msg)",
    ),
    # An ack clears only its own envelope: one whose acks were all
    # lost is retransmitted until an ack of a retransmission arrives.
    "no_cumulative_ack": (
        "for done in [s for s in unacked if s <= floor]:",
        "for done in []:",
    ),
    # Every retransmission waits the base timeout: no backoff.
    "no_backoff": (
        "self.base_timeout * 2 ** min(attempts - 1, 6)",
        "self.base_timeout * 1",
    ),
}

LOSSY_CELLS = sorted(
    cell for cell in golden_table.CELLS if cell.endswith("/lossy")
)


def _mutant(old, new):
    """``Transport`` with one line of its source rewritten."""
    source = inspect.getsource(Transport)
    assert source.count(old) == 1, f"stale mutation anchor: {old!r}"
    namespace = dict(vars(network))
    exec(compile("from __future__ import annotations\n"
                 + source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace["Transport"]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_lossy_golden_cells_catch_a_broken_transport(name, monkeypatch):
    assert len(LOSSY_CELLS) == 10
    golden = golden_table._golden()
    monkeypatch.setattr(simulator, "Transport", _mutant(*MUTANTS[name]))
    for cell in LOSSY_CELLS:
        try:
            if golden_table.observe(cell) != golden[cell]:
                return
        except RuntimeFault:
            return
    pytest.fail(f"{name} reproduces all {len(LOSSY_CELLS)} lossy cells")
