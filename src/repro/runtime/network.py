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
dropped, duplicated, hit by a latency spike, or swallowed by a
temporary link partition, all decided by a dedicated seeded RNG so a
(program seed, fault seed) pair replays exactly.  The point-to-point
FIFO guarantee is then re-established *above* the lossy wire by the
simulator's sequence-numbered ack/retransmit protocol
(:mod:`repro.runtime.simulator`): receivers deliver each link's traffic
in sequence order, so every SC argument that leaned on FIFO still
holds under loss.

Fault-plan spec grammar (the CLI's ``--faults`` string)::

    spec      := item (',' item)*
    item      := 'drop=P' | 'drop.KIND=P'        # drop probability
               | 'dup=P'  | 'dup.KIND=P'         # duplication probability
               | 'spike=P:CYCLES'                # latency spike
               | 'partition=A-B@START+DURATION'  # temporary link outage
               | 'stall=PID@START+DURATION'      # processor stall window
               | 'retry_cap=N'                   # retransmission budget

where ``KIND`` is a lower-case :class:`MsgKind` value (``store_req``,
``put_req``, ``net_ack``, ...), probabilities are floats in [0, 1] and
times are cycles.  Example: ``drop=0.1,dup=0.05,drop.store_req=0.2,
spike=0.02:2000,partition=0-1@1000+5000``.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.runtime.trace import MemEvent

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
    #: transport-level acknowledgement of one (link, seq) envelope;
    #: exists only when a fault plan is active.
    NET_ACK = "net_ack"


@dataclass
class Message:
    kind: MsgKind
    src: int
    dst: int
    #: shared variable + flat element offset for data and sync requests;
    #: the requester resolved (and bounds-checked) it, the home applies it
    var: Optional[str] = None
    flat: int = 0
    value: Optional[Value] = None
    #: destination temp (get) / synchronizing counter id
    dest_temp: Optional[str] = None
    counter: Optional[int] = None
    #: fused get landing pad: local array name + flat element offset
    local_array: Optional[str] = None
    local_flat: Optional[int] = None
    #: opaque tag correlating requests and replies
    tag: int = 0
    #: per-link transport sequence number (reliability protocol only)
    seq: Optional[int] = None
    #: a traced read's MemEvent, riding request and reply until the
    #: value lands (None in untraced runs and on every other kind)
    event: Optional[MemEvent] = None


# -- fault plans -------------------------------------------------------------


@dataclass(frozen=True)
class LinkPartition:
    """A temporary outage between two processors (both directions)."""

    a: int
    b: int
    #: outage window [start, heal) in cycles
    start: int
    heal: int

    def covers(self, src: int, dst: int, now: int) -> bool:
        return (
            self.start <= now < self.heal
            and {src, dst} == {self.a, self.b}
        )


@dataclass(frozen=True)
class StallWindow:
    """A window during which one processor's core makes no progress.

    The network interface keeps servicing traffic (active-message
    handlers run in the NI, not the stalled core); only the core's
    resumption is pushed past the window's end.
    """

    pid: int
    start: int
    end: int


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of what the network breaks.

    Probabilities apply per physical transmission: a retransmitted
    envelope rolls the dice again.  ``drop``/``duplicate`` are the
    defaults for every :class:`MsgKind`; the ``*_by_kind`` maps
    override per kind.  All randomness is drawn from one RNG seeded
    with ``seed``, so identical (plan, program, machine seed) triples
    replay byte-for-byte.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    drop_by_kind: Mapping[MsgKind, float] = field(default_factory=dict)
    dup_by_kind: Mapping[MsgKind, float] = field(default_factory=dict)
    #: probability / magnitude of an extra latency spike per copy
    spike_prob: float = 0.0
    spike_cycles: int = 0
    partitions: Tuple[LinkPartition, ...] = ()
    stalls: Tuple[StallWindow, ...] = ()
    #: maximum retransmissions per envelope before NetworkFault
    retry_cap: int = 10
    seed: int = 0

    # -- queries ----------------------------------------------------------

    def drop_prob(self, kind: MsgKind) -> float:
        return self.drop_by_kind.get(kind, self.drop)

    def dup_prob(self, kind: MsgKind) -> float:
        return self.dup_by_kind.get(kind, self.duplicate)

    def partitioned(self, src: int, dst: int, now: int) -> bool:
        return any(p.covers(src, dst, now) for p in self.partitions)

    def stalled_until(self, pid: int, time: int) -> int:
        """The earliest cycle >= ``time`` at which ``pid`` may run."""
        moved = True
        while moved:  # windows may abut or overlap
            moved = False
            for window in self.stalls:
                if window.pid == pid and window.start <= time < window.end:
                    time = window.end
                    moved = True
        return time

    def with_seed(self, seed: int) -> "FaultPlan":
        from dataclasses import replace

        return replace(self, seed=seed)

    # -- parsing ----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parses the ``--faults`` grammar documented in the module."""
        kwargs: Dict[str, object] = {"seed": seed}
        drop_by_kind: Dict[MsgKind, float] = {}
        dup_by_kind: Dict[MsgKind, float] = {}
        partitions: List[LinkPartition] = []
        stalls: List[StallWindow] = []
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
            value = value.strip()
            try:
                if key == "drop":
                    kwargs["drop"] = _prob(value, item)
                elif key == "dup":
                    kwargs["duplicate"] = _prob(value, item)
                elif key.startswith("drop."):
                    drop_by_kind[_kind(key[5:])] = _prob(value, item)
                elif key.startswith("dup."):
                    dup_by_kind[_kind(key[4:])] = _prob(value, item)
                elif key == "spike":
                    prob, _, cycles = value.partition(":")
                    kwargs["spike_prob"] = _prob(prob, item)
                    kwargs["spike_cycles"] = int(cycles or "0")
                elif key == "partition":
                    link, _, window = value.partition("@")
                    a, _, b = link.partition("-")
                    start, _, duration = window.partition("+")
                    begin = int(start)
                    partitions.append(LinkPartition(
                        int(a), int(b), begin, begin + int(duration)
                    ))
                elif key == "stall":
                    pid, _, window = value.partition("@")
                    start, _, duration = window.partition("+")
                    begin = int(start)
                    stalls.append(StallWindow(
                        int(pid), begin, begin + int(duration)
                    ))
                elif key == "retry_cap":
                    kwargs["retry_cap"] = int(value)
                elif key == "seed":
                    kwargs["seed"] = int(value)
                else:
                    raise ValueError(f"unknown fault key {key!r}")
            except ValueError as exc:
                raise ValueError(
                    f"bad fault item {item!r}: {exc}"
                ) from None
        kwargs["drop_by_kind"] = drop_by_kind
        kwargs["dup_by_kind"] = dup_by_kind
        kwargs["partitions"] = tuple(partitions)
        kwargs["stalls"] = tuple(stalls)
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        """A compact human-readable summary for diagnostics."""
        parts = [f"drop={self.drop:g}", f"dup={self.duplicate:g}"]
        for kind, prob in sorted(self.drop_by_kind.items(),
                                 key=lambda kv: kv[0].value):
            parts.append(f"drop.{kind.value}={prob:g}")
        for kind, prob in sorted(self.dup_by_kind.items(),
                                 key=lambda kv: kv[0].value):
            parts.append(f"dup.{kind.value}={prob:g}")
        if self.spike_prob:
            parts.append(f"spike={self.spike_prob:g}:{self.spike_cycles}")
        for p in self.partitions:
            parts.append(
                f"partition={p.a}-{p.b}@{p.start}+{p.heal - p.start}"
            )
        for s in self.stalls:
            parts.append(f"stall={s.pid}@{s.start}+{s.end - s.start}")
        parts.append(f"retry_cap={self.retry_cap}")
        return ",".join(parts)


def _prob(text: str, _item: str = "") -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability {value} outside [0, 1]")
    return value


def _kind(name: str) -> MsgKind:
    try:
        return MsgKind(name.lower())
    except ValueError:
        known = ", ".join(k.value for k in MsgKind)
        raise ValueError(
            f"unknown message kind {name!r} (known: {known})"
        ) from None


# -- statistics --------------------------------------------------------------


@dataclass
class LinkStats:
    """Per-(src, dst) fault accounting."""

    sent: int = 0
    delivered_copies: int = 0
    dropped: int = 0
    duplicated: int = 0
    partition_drops: int = 0


@dataclass
class NetworkStats:
    """Traffic accounting, reported by the benchmark harness."""

    messages_by_kind: Dict[MsgKind, int] = field(default_factory=dict)
    total_messages: int = 0
    #: fault-injection accounting (all zero on a perfect network)
    drops_by_kind: Dict[MsgKind, int] = field(default_factory=dict)
    duplicates_by_kind: Dict[MsgKind, int] = field(default_factory=dict)
    retransmits: int = 0
    duplicates_suppressed: int = 0
    spikes: int = 0
    partition_drops: int = 0
    #: transmissions-needed -> completed envelopes (1 = first try)
    retry_histogram: Dict[int, int] = field(default_factory=dict)

    def record(self, kind: MsgKind) -> None:
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + 1
        self.total_messages += 1

    def record_drop(self, kind: MsgKind) -> None:
        self.drops_by_kind[kind] = self.drops_by_kind.get(kind, 0) + 1

    def record_duplicate(self, kind: MsgKind) -> None:
        self.duplicates_by_kind[kind] = (
            self.duplicates_by_kind.get(kind, 0) + 1
        )

    def record_retries(self, attempts: int) -> None:
        self.retry_histogram[attempts] = (
            self.retry_histogram.get(attempts, 0) + 1
        )

    def count(self, kind: MsgKind) -> int:
        return self.messages_by_kind.get(kind, 0)

    @property
    def total_drops(self) -> int:
        return sum(self.drops_by_kind.values())

    @property
    def total_duplicates(self) -> int:
        return sum(self.duplicates_by_kind.values())

    def fault_summary(self) -> Dict[str, object]:
        """The reliability-protocol counters as plain JSON-able data."""
        return {
            "drops": self.total_drops,
            "duplicates_injected": self.total_duplicates,
            "duplicates_suppressed": self.duplicates_suppressed,
            "retransmits": self.retransmits,
            "latency_spikes": self.spikes,
            "partition_drops": self.partition_drops,
            "retry_histogram": {
                str(attempts): count
                for attempts, count in sorted(self.retry_histogram.items())
            },
        }


class Network:
    """Seeded, point-to-point-FIFO latency model.

    The network computes delivery times and keeps traffic statistics;
    the simulator owns the actual event queue.  Without a fault plan,
    :meth:`send` is the whole story (and FIFO is enforced by bumping
    arrival times).  With a plan, the simulator calls :meth:`transmit`
    instead: each call is one *physical* transmission attempt that may
    yield zero, one or two arrivals; ordering is restored above by the
    sequence-numbered protocol.
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
        self.link_stats: Dict[Tuple[int, int], LinkStats] = {}
        self.in_flight = 0

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
        self.in_flight += 1
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
        link = (msg.src, msg.dst)
        lstats = self.link_stats.get(link)
        if lstats is None:
            lstats = self.link_stats[link] = LinkStats()
        lstats.sent += 1
        copies = 1
        if self._frng.random() < plan.dup_prob(msg.kind):
            copies = 2
            stats.record_duplicate(msg.kind)
            lstats.duplicated += 1
        arrivals: List[int] = []
        for _ in range(copies):
            if plan.partitioned(msg.src, msg.dst, now):
                stats.partition_drops += 1
                lstats.partition_drops += 1
                lstats.dropped += 1
                continue
            if self._frng.random() < plan.drop_prob(msg.kind):
                stats.record_drop(msg.kind)
                lstats.dropped += 1
                continue
            delay = self._wire
            if self._jitter:
                delay += self._rng.randint(0, self._jitter)
            if plan.spike_prob and self._frng.random() < plan.spike_prob:
                delay += plan.spike_cycles
                stats.spikes += 1
            arrivals.append(now + delay)
            lstats.delivered_copies += 1
            self.in_flight += 1
        return arrivals

    def delivered(self) -> None:
        """Marks one message as delivered (simulator bookkeeping)."""
        self.in_flight -= 1

    def describe_link(self, link: Tuple[int, int]) -> str:
        """One line of per-link fault forensics for error messages."""
        stats = self.link_stats.get(link, LinkStats())
        return (
            f"link {link[0]}->{link[1]}: {stats.sent} sent, "
            f"{stats.dropped} dropped ({stats.partition_drops} by "
            f"partition), {stats.duplicated} duplicated, "
            f"{stats.delivered_copies} copies delivered"
        )
