"""Data-plane hop engine.

One per-hop engine over a slotted link abstraction: the sender broadcasts
to a priority-ordered set of receivers, and an optional relay that
overhears a missed copy forwards it to the first receiver. Plain RPL is one
receiver (the default parent) and no relay; Coop-RPL adds the selected
relay; opportunistic RPL is the forwarding set as receivers. Every
transmission is one slot and one deterministic Bernoulli draw keyed by
(packet, link, attempt, seed).
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import rng
from .rng import _PACKERS, derive_seed, uniform
from .topology import Channel

DOMAIN_TRANSMIT = 0x7B
DOMAIN_COOP_DECISION = 0xC0

_pack_draw = _PACKERS[6].pack  # (seed, domain, packet, src, dst, attempt)


class Protocol(Enum):
    RPL = "rpl"
    COOP_RPL = "coop_rpl"
    OPP_RPL = "opp_rpl"


class PacketStatus(Enum):
    IN_FLIGHT = "in_flight"
    DELIVERED = "delivered"
    DROPPED = "dropped"


@dataclass(slots=True)
class Packet:
    packet_id: int
    source: int
    created_slot: int
    current_holder: int
    hop_count: int = 0
    total_transmissions: int = 0
    retransmissions: int = 0
    status: PacketStatus = PacketStatus.IN_FLIGHT
    delivered_slot: int | None = None
    drop_reason: str | None = None
    relay_hops: int = 0  # hops on which the relay overheard a copy
    visited: set[int] = field(default_factory=set)
    # the packet's draw state, not part of its record: outside == and repr
    link: LinkLayer | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.visited.add(self.current_holder)

    @property
    def delay_slots(self) -> int | None:
        if self.delivered_slot is None:
            return None
        return self.delivered_slot - self.created_slot


class HopOutcome(NamedTuple):
    attempts: int
    relay_used: bool
    relay_attempts: int
    delivered: bool
    slots_consumed: int
    receiver: int | None = None
    delivered_by_relay: bool = False


class LinkLayer:
    """Per-packet deterministic link draws.

    Each directed link keeps an attempt counter so the n-th use of a link by
    a packet always sees the same draw, independent of slots or call order
    elsewhere: ``uniform(seed, DOMAIN_TRANSMIT, packet_id, src, dst, n)``.
    Each attempt hashes its whole packed key with ``rng._hash_u64``, and
    sends the key to ``uniform`` when a part does not pack as int64.
    Transmissions are optionally registered per slot for interference
    bookkeeping.
    """

    __slots__ = ("channel", "registry", "seed", "packet_id", "_counters")

    def __init__(
        self,
        channel: Channel,
        seed: int,
        packet_id: int,
        registry: dict[int, set[int]] | None = None,
    ):
        self.channel = channel
        self.registry = registry
        self.seed = seed
        self.packet_id = packet_id
        self._counters: dict[tuple[int, int], int] = {}

    def transmit(self, src: int, dst: int, slot: int) -> bool:
        key = (src, dst)
        idx = self._counters.get(key, 0)
        self._counters[key] = idx + 1
        if self.registry is not None:
            self.registry.setdefault(slot, set()).add(src)
        channel = self.channel
        p = channel._success.get(key)  # success_probability's cache; a hit skips the call
        if p is None:
            p = channel.success_probability(src, dst)
        try:
            material = _pack_draw(self.seed, DOMAIN_TRANSMIT, self.packet_id, src, dst, idx)
        except struct.error:
            return uniform(self.seed, DOMAIN_TRANSMIT, self.packet_id, src, dst, idx) < p
        return rng._unit(rng._hash_u64(material)) < p


def forward_hop(
    link_layer,
    holder: int,
    receivers: tuple[int, ...],
    relay: int | None,
    slot: int,
    max_retx: int,
    relay_retx: int,
    retx_wait: int,
) -> HopOutcome:
    """Broadcast to priority-ordered receivers, a relay optionally listening.

    Each sender attempt is one slot judged against every receiver's link;
    the first receiver that got the packet takes over, so simultaneous
    receptions never duplicate it. When none did, the sender-relay link is
    judged too, and an overheard copy is forwarded by the relay to the first
    receiver for up to relay_retx tries before the sender resumes retrying.
    Each retry follows an ACK-timeout gap of retx_wait slots; relay forwards
    displace wait slots rather than adding to them. The hop fails only once
    sender and relay budgets are both spent.
    """
    if not receivers:
        raise ValueError("empty forwarding set")
    relay_attempts = 0
    relay_used = False
    cursor = 0
    transmit = link_layer.transmit
    for attempts in range(1, max_retx + 2):
        now = slot + cursor
        cursor += 1
        receiver = None
        for member in receivers:
            if transmit(holder, member, now) and receiver is None:
                receiver = member
        if receiver is not None:
            return HopOutcome(attempts, relay_used, relay_attempts, True, cursor, receiver)
        wait = retx_wait
        if relay is not None and transmit(holder, relay, now):
            relay_used = True
            for _ in range(relay_retx):
                relay_attempts += 1
                wait -= 1  # the forward takes a slot of the sender's gap
                forwarded = transmit(relay, receivers[0], slot + cursor)
                cursor += 1
                if forwarded:
                    return HopOutcome(
                        attempts, True, relay_attempts, True, cursor, receivers[0],
                        delivered_by_relay=True,
                    )
        if attempts <= max_retx and wait > 0:
            cursor += wait
    return HopOutcome(attempts, relay_used, relay_attempts, False, cursor, None)


def build_forwarding_set(
    owner_state, states: dict, channel: Channel, etx_of, size: int
) -> tuple[int, ...]:
    """Priority-ordered anycast set, best next hop first: lower-rank
    neighbors, deepest progress toward the root first, path cost breaking
    ties. Shrinks when fewer qualify (a lone default parent degenerates to
    plain unicast)."""
    owner = owner_state.node_id
    if owner_state.rank is None:
        return ()
    ranked = []
    for n in channel.neighbors(owner):
        st = states.get(n)
        if st is None or not st.joined or st.rank >= owner_state.rank:
            continue
        ranked.append((st.rank, st.rank + etx_of(owner, n), n))
    ranked.sort()
    members = [n for _, _, n in ranked[:size]]
    if not members and owner_state.default_parent is not None:
        members = [owner_state.default_parent]
    return tuple(members)


@dataclass(slots=True)
class NetworkView:
    """Everything the data plane needs from a formed scenario; the run
    parameters are the ScenarioConfig's. Only the simulator's route refresh
    fills the route tables: coop_rpl fills relay_for, opp_rpl fills fsets,
    and rpl neither, so a hop reads its protocol from them."""

    states: dict
    gateway: int
    observe_link: Callable[[int, int, int, int], None]  # (src, dst, attempts, successes)
    max_retx: int
    relay_retx: int
    retx_wait: int
    p_coop: float
    relay_for: dict[int, int | None]
    fsets: dict[int, tuple[int, ...]]
    seed: int


def advance_one_hop(
    packet: Packet,
    net: NetworkView,
    link_layer: LinkLayer,
    slot: int,
) -> HopOutcome | None:
    """Run one hop of the packet's journey at the given slot.

    Mutates the packet (status, holder, tallies, delivery slot) and reports
    every link the hop used to net.observe_link. Returns the hop outcome,
    or None when the holder has no route.
    """
    holder = packet.current_holder
    parent = net.states[holder].default_parent
    if parent is None:
        packet.status = PacketStatus.DROPPED
        packet.drop_reason = "no-route"
        return None
    receivers = net.fsets.get(holder, (parent,))
    relay = net.relay_for.get(holder)
    # the cooperation decision: a Bernoulli(p_coop) draw keyed by packet and
    # holder. Without a relay there is nothing to decide, and at p_coop = 1
    # every draw in [0, 1) cooperates; neither spends a draw
    if relay is not None and net.p_coop < 1.0 and uniform(
        derive_seed(net.seed, DOMAIN_COOP_DECISION, packet.packet_id, holder), 0
    ) >= net.p_coop:
        relay = None
    outcome = forward_hop(
        link_layer, holder, receivers, relay, slot,
        net.max_retx, net.relay_retx, net.retx_wait,
    )
    attempts, relay_used, relay_attempts, delivered, slots, receiver, by_relay = outcome
    observe = net.observe_link
    if delivered and not by_relay:
        observe(holder, receiver, attempts, 1)
    else:
        for member in receivers:
            observe(holder, member, attempts, 0)
    if relay_attempts:
        observe(relay, receivers[0], relay_attempts, 1 if by_relay else 0)
    packet.total_transmissions += attempts + relay_attempts
    if relay_used:
        packet.relay_hops += 1
    packet.retransmissions += attempts - 1 + relay_attempts
    if not delivered:
        packet.status = PacketStatus.DROPPED
        packet.drop_reason = "link-failure"
        return outcome
    packet.hop_count += 1
    packet.current_holder = receiver
    if receiver == net.gateway:
        packet.status = PacketStatus.DELIVERED
        packet.delivered_slot = slot + slots
    elif receiver in packet.visited:
        packet.status = PacketStatus.DROPPED
        packet.drop_reason = "loop"
    else:
        packet.visited.add(receiver)
    return outcome
