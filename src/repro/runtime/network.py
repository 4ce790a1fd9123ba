"""The interconnection network model.

Messages carry split-phase requests, replies and synchronization
traffic.  Delivery time is ``issue + wire_latency + jitter`` where the
jitter is drawn from a seeded RNG — this is the adversarial reordering
the paper's section 1 lists (adaptive routing, varying latencies); SC
litmus tests rely on it.

One ordering guarantee is kept: messages between the same (source,
destination) pair are delivered in issue order (point-to-point FIFO,
like the CM-5's deterministic routes).  One-way ``store`` traffic is
only correct under this guarantee (two stores to the same location have
no acknowledgements to order them); everything else tolerates full
reordering.

Fault injection
===============

A :class:`FaultPlan` turns the network adversarial in a second
dimension: *loss*.  With a plan installed, :meth:`Network.transmit`
replaces :meth:`Network.send` — each physical transmission may be
dropped or duplicated, decided by a dedicated seeded RNG so a (program
seed, fault seed) pair replays exactly.

Above it the :class:`Transport` restores point-to-point FIFO.  Each
logical message travels in a sequence-numbered envelope, retransmitted
until acked on a timeout strictly above the worst-case round trip that
doubles per attempt (capped at 64x); past ``RETRY_CAP`` retransmissions
:class:`NetworkFault` is raised — silent loss becomes a diagnosis,
never a hang.  Receivers ack every arrival (acks are faultable too),
suppress duplicates and release strictly in sequence order, so handlers
see each message **exactly once, in order**.  Acks are cumulative: each
carries the link's in-order delivery floor, so an envelope whose own
acks were all lost is cleared by any later one.  Acks cost no handler
cycles.

Fault-plan spec grammar (the CLI's ``--faults`` string)::

    spec      := item (',' item)*
    item      := 'drop=P'                        # drop probability
               | 'dup=P'                         # duplication probability

where probabilities are floats in [0, 1] that apply to every message
kind (transport acks included); the fault RNG's seed is the CLI's
``--fault-seed``.  Example: ``drop=0.1,dup=0.05``.
"""

from __future__ import annotations

import enum
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.errors import NetworkFault
from repro.runtime.trace import MemEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.machine import MachineConfig
    from repro.runtime.simulator import Simulator

Value = Union[int, float]


class MsgKind(enum.Enum):
    __hash__ = object.__hash__  # identity: see ``ir.instructions.Opcode``

    GET_REQ = "get_req"
    GET_REPLY = "get_reply"
    PUT_REQ = "put_req"
    PUT_ACK = "put_ack"
    STORE_REQ = "store_req"
    POST_REQ = "post_req"
    WAIT_REQ = "wait_req"
    WAIT_GRANT = "wait_grant"
    LOCK_REQ = "lock_req"
    LOCK_GRANT = "lock_grant"
    UNLOCK_REQ = "unlock_req"
    BARRIER_ARRIVE = "barrier_arrive"
    BARRIER_RELEASE = "barrier_release"
    #: the transport's acknowledgement of one envelope (fault plans
    #: only; its seq and floor ride the event, not the message)
    NET_ACK = "net_ack"


class Message:
    """One network message: a slots class, built once per message on
    the hottest path (``@dataclass(slots=True)`` needs Python 3.10).
    The decoder's generated code passes the fields positionally.

    ``var``/``flat`` name the element the requester resolved and
    bounds-checked, and the home applies; ``dest_temp``/``counter`` a
    get's destination and the synchronizing counter (a reply without
    one wakes its destination, which is parked at the request);
    ``local_array``/``local_flat`` a fused get's landing pad; ``event``
    is a traced read's MemEvent, riding request and reply until the
    value lands.
    """

    __slots__ = ("kind", "src", "dst", "var", "flat", "value", "dest_temp",
                 "counter", "local_array", "local_flat", "event")

    def __init__(self, kind: MsgKind, src: int, dst: int,
                 var: Optional[str] = None, flat: int = 0,
                 value: Optional[Value] = None,
                 dest_temp: Optional[str] = None,
                 counter: Optional[int] = None,
                 local_array: Optional[str] = None,
                 local_flat: Optional[int] = None,
                 event: Optional[MemEvent] = None) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.var = var
        self.flat = flat
        self.value = value
        self.dest_temp = dest_temp
        self.counter = counter
        self.local_array = local_array
        self.local_flat = local_flat
        self.event = event

    def __repr__(self) -> str:
        return "Message(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


# -- fault plans -------------------------------------------------------------


#: retransmissions per envelope before :class:`NetworkFault`
RETRY_CAP = 10


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of what the network breaks.

    Probabilities apply per physical transmission, to every
    :class:`MsgKind` alike: a retransmitted envelope rolls the dice
    again.  All randomness is drawn from one RNG seeded with ``seed``,
    so identical (plan, program, machine seed) triples replay
    byte-for-byte.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # The bounds ``parse`` applies, for plans built directly too.
        _prob(self.drop)
        _prob(self.duplicate)

    # -- parsing ----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parses the ``--faults`` grammar documented in the module."""
        kwargs: Dict[str, float] = {}
        for raw in spec.split(","):
            item = raw.strip()
            if not item:
                continue
            try:
                key, value = item.split("=", 1)
            except ValueError:
                raise ValueError(
                    f"bad fault item {item!r} (expected key=value)"
                ) from None
            key = key.strip()
            try:
                if key == "drop":
                    kwargs["drop"] = _prob(value.strip())
                elif key == "dup":
                    kwargs["duplicate"] = _prob(value.strip())
                else:
                    raise ValueError(f"unknown fault key {key!r}")
            except ValueError as exc:
                raise ValueError(
                    f"bad fault item {item!r}: {exc}"
                ) from None
        return cls(seed=seed, **kwargs)

    def describe(self) -> str:
        """The plan as a ``--faults`` spec: ``parse(describe(), seed)``
        gives the plan back."""
        return f"drop={_num(self.drop)},dup={_num(self.duplicate)}"


def _prob(text: Union[str, float]) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability {value} outside [0, 1]")
    return value


def _num(value: float) -> str:
    """The shortest text that parses back to ``value`` exactly."""
    return repr(value).removesuffix(".0")


# -- statistics --------------------------------------------------------------


@dataclass
class NetworkStats:
    """Traffic accounting, reported by the benchmark harness."""

    messages_by_kind: Dict[MsgKind, int] = field(default_factory=dict)
    total_messages: int = 0
    #: fault-injection accounting (all zero on a perfect network)
    drops: int = 0
    duplicates: int = 0
    retransmits: int = 0
    duplicates_suppressed: int = 0

    def record(self, kind: MsgKind) -> None:
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + 1
        self.total_messages += 1

    def count(self, kind: MsgKind) -> int:
        return self.messages_by_kind.get(kind, 0)


class Network:
    """Seeded, point-to-point-FIFO latency model.

    The network computes delivery times and keeps traffic statistics;
    the simulator owns the actual event queue.  Without a fault plan,
    :meth:`send` is the whole story (and FIFO is enforced by bumping
    arrival times).  With a plan, the :class:`Transport` calls
    :meth:`transmit` instead: each call is one *physical* transmission
    attempt that may yield zero, one or two arrivals.
    """

    def __init__(self, wire_latency: int, jitter: int = 0,
                 seed: int = 0, plan: Optional["FaultPlan"] = None):
        self._wire = wire_latency
        self._jitter = jitter
        self._rng = random.Random(seed)
        self._last_delivery: Dict[Tuple[int, int], int] = {}
        self.plan = plan
        self._frng = random.Random(plan.seed if plan is not None else 0)
        self.stats = NetworkStats()

    def send(self, msg: Message, now: int) -> int:
        """Accounts for a message injection; returns its delivery time."""
        delay = self._wire
        if self._jitter:
            delay += self._rng.randint(0, self._jitter)
        arrival = now + delay
        pair = (msg.src, msg.dst)
        floor = self._last_delivery.get(pair)
        if floor is not None and arrival <= floor:
            arrival = floor + 1  # point-to-point FIFO
        self._last_delivery[pair] = arrival
        self.stats.record(msg.kind)
        return arrival

    def transmit(self, msg: Message, now: int,
                 retransmission: bool = False) -> List[int]:
        """One physical transmission attempt under the fault plan.

        Returns the arrival times of every copy that survives the wire
        (possibly empty).  No FIFO bumping: receivers re-order by
        sequence number.
        """
        plan = self.plan
        assert plan is not None, "transmit() requires a fault plan"
        stats = self.stats
        stats.record(msg.kind)
        if retransmission:
            stats.retransmits += 1
        copies = 1
        if self._frng.random() < plan.duplicate:
            copies = 2
            stats.duplicates += 1
        arrivals: List[int] = []
        for _ in range(copies):
            if self._frng.random() < plan.drop:
                stats.drops += 1
                continue
            delay = self._wire
            if self._jitter:
                delay += self._rng.randint(0, self._jitter)
            arrivals.append(now + delay)
        return arrivals


# -- the reliability protocol ------------------------------------------------


@dataclass
class _Link:
    """Both ends' protocol state for one directed (src, dst) link."""

    next_seq: int = 0
    #: sender: seq -> (envelope, transmissions so far), until acked
    unacked: Dict[int, Tuple[Message, int]] = field(default_factory=dict)
    #: receiver: the next seq to release, and arrivals held above it
    expected: int = 0
    held: Dict[int, Message] = field(default_factory=dict)


class Transport:
    """The reliability protocol of the module docstring.  Its events
    ride the simulator's queue as ``("xport", what, ...)`` and come back
    through :meth:`handle`; ``sim._push`` and ``sim._handle_message``
    are looked up per call (the test-side reference engine rebinds
    ``_push`` after construction)."""

    def __init__(self, network: Network, machine: MachineConfig,
                 sim: Simulator) -> None:
        self.network = network
        self.sim = sim
        # Strictly above the worst-case round trip — data and ack wire
        # time, each inflated by the full jitter bound, plus handler
        # time and slack for FIFO bumps and queueing — so a timeout
        # means a lost envelope or ack, never a slow one.
        worst_one_way = machine.wire_latency + machine.jitter
        self.base_timeout = (
            2 * worst_one_way + machine.remote_handle
            + machine.send_overhead + machine.recv_overhead + 16
        )
        self._links: Dict[Tuple[int, int], _Link] = defaultdict(_Link)

    def send(self, msg: Message, now: int) -> None:
        """``Simulator.send`` under a fault plan: ``msg`` becomes its
        link's next envelope."""
        link = self._links[(msg.src, msg.dst)]
        link.next_seq += 1
        self._transmit(link, link.next_seq - 1, msg, 1, now)

    def _transmit(self, link: _Link, seq: int, msg: Message, attempts: int,
                  now: int) -> None:
        """Transmission number ``attempts`` of one envelope, and its
        timer: the timeout doubles per attempt, up to 64x."""
        link.unacked[seq] = (msg, attempts)
        push = self.sim._push
        arrivals = self.network.transmit(msg, now, retransmission=attempts > 1)
        for arrival in arrivals:
            push(arrival, ("xport", "data", msg, seq))
        push(now + self.base_timeout * 2 ** min(attempts - 1, 6),
             ("xport", "timer", (msg.src, msg.dst), seq))

    def handle(self, now: int, payload: tuple) -> None:
        """One ``("xport", ...)`` event off the simulator's queue."""
        what = payload[1]
        if what == "timer":
            self._on_timeout(now, payload[2], payload[3])
            return
        if what == "data":
            self._on_envelope(now, payload[2], payload[3])
        else:
            self._on_ack(payload[2], payload[3], payload[4])

    def _on_timeout(self, now: int, key: Tuple[int, int], seq: int) -> None:
        link = self._links[key]
        entry = link.unacked.get(seq)
        if entry is None:
            return  # acked in the meantime: a stale timer
        msg, attempts = entry
        if attempts > RETRY_CAP:
            raise NetworkFault(
                f"P{msg.src}: {msg.kind.value} to P{msg.dst} "
                f"undeliverable after {attempts} transmissions "
                f"(seq {seq}, retry cap {RETRY_CAP})",
                undeliverable=msg, link=key, attempts=attempts,
            )
        self._transmit(link, seq, msg, attempts + 1, now)

    def _on_envelope(self, now: int, msg: Message, seq: int) -> None:
        """Suppresses duplicates, releases in seq order, always acks."""
        key = (msg.src, msg.dst)
        link = self._links[key]
        if seq < link.expected or seq in link.held:
            self.network.stats.duplicates_suppressed += 1
        else:
            link.held[seq] = msg
            while link.expected in link.held:
                ready = link.held.pop(link.expected)
                link.expected += 1
                self.sim._handle_message(now, ready)
        # Always ack: our last ack may be what was lost.  Without the
        # floor, one envelope fails once ~11 independent coin flips go
        # wrong — far too often across a whole campaign.
        floor = link.expected - 1
        ack = Message(MsgKind.NET_ACK, src=msg.dst, dst=msg.src)
        for arrival in self.network.transmit(ack, now):
            self.sim._push(arrival, ("xport", "ack", key, seq, floor))

    def _on_ack(self, key: Tuple[int, int], seq: int, floor: int) -> None:
        """Clears the acked envelope of link ``key``, and every one at
        or below the receiver's in-order floor."""
        unacked = self._links[key].unacked
        unacked.pop(seq, None)
        for done in [s for s in unacked if s <= floor]:
            del unacked[done]

    def forensics(self) -> List[str]:
        """The deadlock report's lines on envelopes awaiting an ack."""
        lines = [
            f"  unacked envelope {key[0]}->{key[1]} seq {seq} "
            f"({msg.kind.value}, {attempts} transmission(s))"
            for key, link in sorted(self._links.items())
            for seq, (msg, attempts) in sorted(link.unacked.items())
        ]
        return lines or ["  unacked envelopes: none"]
