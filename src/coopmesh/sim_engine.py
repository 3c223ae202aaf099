"""Discrete-event scheduler tying the pieces together.

One run has two phases on one event queue: DAG formation (trickle-paced DIOs
plus DIS solicitation and DAO advertisements) until ranks are quiet, then
traffic (uniform random sources and slots) with the control plane still
live. Both phases hand every control event to one dispatch, and from
traffic start on the protocol's routes (coop_rpl's relays, opp_rpl's
forwarding sets) are kept fresh by one refresh rule. Events are processed
by slot, then kind priority, then push order, so a replay with the same
config and seed is bit-identical.

A heap entry is a plain tuple ``(slot, kind, event_id, payload)``; an
``EventKind`` is an int, its own same-slot priority. ``event_id`` is unique
per run, so tuple comparison is always settled within the first three
fields and never reaches ``payload``, which need not be orderable at all.

Packet arrivals are generated up front as numpy arrays, which the loop reads
through ``array('q')`` copies, and queued one at a time, each handled
arrival queuing the next, so the heap holds at most one; a hop event's
payload is its ``Packet``. An arrival sorts after the hops of its
slot and runs its packet's first hop when handled, so a first hop never
enters the heap. See ``Simulation.run_traffic``.

This module alone writes the trace format: each record is a dict literal
built where it is emitted (DIO, DIS and DAO records by their control
handlers, relay and packet records by the traffic loop). A DAO event does
nothing but emit its record, so only a traced run queues one.

Within ``shared_networks()``, runs with equal placement inputs share one
placement and one ``Channel``; a sweep point opens it around its variants.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .config import ScenarioConfig
from .coop_relay import run_selection
from .forwarding import (
    LinkLayer,
    NetworkView,
    Packet,
    Protocol,
    advance_one_hop,
    build_forwarding_set,
)
from .rng import derive_seed
from .rpl_core import (
    EtxEstimate,
    NodeState,
    TrickleState,
    ancestor_chain,
    dio_changes_nothing,
    process_dio,
    process_dis,
    trickle_fire,
    update_children_and_connections,
)
from .topology import Channel, GATEWAY_ID, NodePlacement, Region, place_nodes

DOMAIN_TRAFFIC = 0x2A

# relay selection's interferers in a slot nobody transmits in
_NO_TRANSMITTERS: frozenset[int] = frozenset()


class EventKind(IntEnum):
    # a kind is its own same-slot processing priority
    TRICKLE_FIRE = 0
    DIO_TX = 1
    DIS_TX = 2
    DAO_TX = 3
    # an arrival sorts after its slot's hops, so it can run its first hop
    # when handled: that hop is the slot's last either way, since no hop
    # queues another in its own slot
    HOP_ATTEMPT = 4
    PACKET_GEN = 5


# Python 3.10 and 3.11 read a member off an Enum class through the slow
# EnumType.__getattr__ hook; per-event code reads these names instead
_TRICKLE_FIRE, _DIO_TX, _DIS_TX, _DAO_TX = (
    EventKind.TRICKLE_FIRE, EventKind.DIO_TX, EventKind.DIS_TX, EventKind.DAO_TX
)
_HOP_ATTEMPT, _PACKET_GEN = EventKind.HOP_ATTEMPT, EventKind.PACKET_GEN
_COOP_RPL, _OPP_RPL = Protocol.COOP_RPL, Protocol.OPP_RPL


@dataclass(frozen=True)
class MetricsReport:
    packets_sent: int
    delivered: int
    dropped: int
    pdr: float
    mean_retransmissions: float
    mean_delay_slots: float | None
    mean_delay_ms: float | None
    disconnected: bool
    joined_nodes: int
    total_nodes: int
    formation_slots: int

    def __post_init__(self):
        if self.delivered + self.dropped != self.packets_sent:
            raise ValueError("packet conservation violated")
        if self.packets_sent > 0:
            if not math.isclose(self.pdr, self.delivered / self.packets_sent):
                raise ValueError("pdr must equal delivered/sent")


@dataclass(slots=True)
class MetricsTally:
    """Integer running totals of the packets folded in so far.

    A packet is folded once, when it resolves, and can then be dropped: the
    report reads these sums alone, and integer sums are exact in any fold
    order. Retransmissions average over every packet, delivered or not;
    delay averages over delivered packets only and is absent when none made
    it. A folded unresolved packet counts as sent but neither delivered nor
    dropped, so it breaks MetricsReport's conservation check.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    retransmissions: int = 0
    delay_slots: int = 0  # over delivered packets

    def fold(self, packet: Packet) -> None:
        self.sent += 1
        self.retransmissions += packet.retransmissions
        if packet.delivered_slot is not None:
            self.delivered += 1
            self.delay_slots += packet.delay_slots
        elif packet.drop_reason is not None:
            self.dropped += 1

    def report(
        self,
        slot_ms: float,
        disconnected: bool = False,
        joined_nodes: int = 0,
        total_nodes: int = 0,
        formation_slots: int = 0,
    ) -> MetricsReport:
        sent = self.sent
        if self.delivered:
            mean_delay = self.delay_slots / self.delivered
            mean_delay_ms = mean_delay * slot_ms
        else:
            mean_delay = None
            mean_delay_ms = None
        return MetricsReport(
            packets_sent=sent,
            delivered=self.delivered,
            dropped=self.dropped,
            pdr=self.delivered / sent if sent else 0.0,
            mean_retransmissions=self.retransmissions / sent if sent else 0.0,
            mean_delay_slots=mean_delay,
            mean_delay_ms=mean_delay_ms,
            disconnected=disconnected,
            joined_nodes=joined_nodes,
            total_nodes=total_nodes,
            formation_slots=formation_slots,
        )


def _int_array(values: np.ndarray) -> array:
    """values' items, as int64, in an array('q'), copied from values' own
    buffer with no bytes object in between."""
    items = array("q")
    items.frombytes(memoryview(values.astype(np.int64, copy=False)).cast("B"))
    return items


def generate_traffic(
    config: ScenarioConfig, sources: list[int], start_slot: int
) -> tuple[np.ndarray, np.ndarray]:
    """n_packets arrivals uniform over sources and the window, as two int64
    arrays indexed by packet id: each packet's arrival slot and source."""
    if not sources:
        raise ValueError("no joined sources to generate traffic from")
    rng = np.random.default_rng(derive_seed(config.seed, DOMAIN_TRAFFIC))
    picks = rng.integers(0, len(sources), size=config.n_packets)
    offsets = rng.integers(0, config.window_slots, size=config.n_packets)
    offsets += start_slot
    return offsets, np.array(sorted(sources), dtype=np.int64)[picks]


# (region_side, effective intensity, seed, channel params) -> the placement
# and channel built for them; a dict only while shared_networks() is open
_networks: dict[tuple, tuple[list[NodePlacement], Channel]] | None = None


@contextmanager
def shared_networks() -> Iterator[None]:
    """While open, a Simulation reuses the placement and Channel built for
    equal placement inputs. A Channel's caches memoise functions of the
    pair alone, so sharing one moves no output; formation, traffic and
    every per-run table stay per run. A placement that raises is not kept,
    so each run that needs it raises again."""
    global _networks
    outer, _networks = _networks, {}
    try:
        yield
    finally:
        _networks = outer


class Simulation:
    """Mutable state of one scenario run.

    form_network() builds one of these through the formation phase, which
    never reads the protocol; run_traffic() then plays the config's protocol
    on it. Every run, sweep variants included, forms its own network, though
    inside shared_networks() runs on equal placement inputs share the
    placement and channel. Both phases dispatch control events through
    _handle_control; once traffic_started is set, _refresh_route keeps each
    changed node's route current. DAO events are queued only while emit is
    set: they do nothing but emit.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        params = config.channel_params()
        key = (config.region_side, config.effective_intensity, config.seed, params)
        network = None if _networks is None else _networks.get(key)
        if network is None:
            # read from the module globals, so a tracer's stand-in is seen
            placements = place_nodes(
                Region(config.region_side), config.effective_intensity, config.seed, params
            )
            network = placements, Channel(placements, params)
            if _networks is not None:
                _networks[key] = network
        self.placements, self.channel = network
        self.states: dict[int, NodeState] = {
            p.node_id: NodeState(p.node_id) for p in self.placements
        }
        self.states[GATEWAY_ID].rank = 0.0
        self.trickles = {node: TrickleState() for node in self.states}
        self.trickle_slots = config.trickle_slots()
        self.dis_timeout_slots = config.ms_to_slots(config.dis_timeout_ms)
        self.active_weights = config.active_weights()
        self.etx_table: dict[tuple[int, int], EtxEstimate] = {}
        self.etx_max = config.etx_max
        # (slot, kind, event_id, payload); see the module docstring
        self.queue: list[tuple] = []
        self.event_id = 0
        self.last_change_slot = 0
        self.now = 0
        self.formation_slots = 0
        # slot -> nodes transmitting in it; only the SINR terms of coop_rpl
        # relay selection read it, and only at the current slot
        self.registry: dict[int, set[int]] | None = (
            {} if config.protocol is Protocol.COOP_RPL else None
        )
        self.emit: Callable[[dict], None] | None = None
        self.relay_for: dict[int, int | None] = {}
        self.relay_rates: dict[int, dict[int, float]] = {}
        self.fsets: dict[int, tuple[int, ...]] = {}
        # set by run_traffic before its first route refresh; from then on
        # DIOs refresh the routes their changes touch
        self.traffic_started = False

    # --- plumbing ---

    def push(self, slot: int, kind: EventKind, payload=None) -> None:
        self.event_id += 1
        heapq.heappush(self.queue, (slot, kind, self.event_id, payload))

    def _seed_etx(self, src: int, dst: int) -> EtxEstimate:
        p = self.channel.success_probability(src, dst)
        seedv = self.etx_max if p <= 0 else min(self.etx_max, 1.0 / p)
        est = self.etx_table[(src, dst)] = EtxEstimate(seedv)
        return est

    def etx_of(self, src: int, dst: int) -> float:
        est = self.etx_table.get((src, dst))
        if est is None:
            est = self._seed_etx(src, dst)
        return est.etx

    def observe_link(self, src: int, dst: int, attempts: int, successes: int) -> None:
        est = self.etx_table.get((src, dst))
        if est is None:
            est = self._seed_etx(src, dst)
        est.observe(attempts, successes, self.etx_max)

    def _move_counts(self, node: int, old_parent: int | None) -> None:
        """Keep children and active connections current after node's default
        parent moved from old_parent: node changes children sets, and its
        flow (itself plus the sources routing through it) leaves the old
        ancestor chain and joins the new one. A node has joined exactly
        while it has a default parent, so a chain it counts itself on is
        never empty. A chain that meets node itself means the move opened
        or closed a cycle through it; every count is then rebuilt from
        scratch."""
        states = self.states
        state = states[node]
        old_chain = ancestor_chain(states, old_parent, node, GATEWAY_ID)
        new_chain = ancestor_chain(states, state.default_parent, node, GATEWAY_ID)
        if old_chain is None or new_chain is None:
            update_children_and_connections(states)
            return
        if old_parent is not None:
            states[old_parent].children.discard(node)
        if state.default_parent is not None:
            states[state.default_parent].children.add(node)
        flow = state.active_connections + 1
        for hop in old_chain:
            states[hop].active_connections -= flow
        for hop in new_chain:
            states[hop].active_connections += flow

    # --- control plane handlers ---

    def _trickle_restart(self, node: int, slot: int) -> None:
        trickle = self.trickles[node]
        process_dis(trickle)  # interval back to minimum
        trickle.seq += 1
        self.push(slot + self.trickle_slots[0], _TRICKLE_FIRE, (node, trickle.seq))

    def _handle_trickle_fire(self, slot: int, payload) -> None:
        node, seq = payload
        trickle = self.trickles[node]
        if seq != trickle.seq:
            return  # superseded by a reset
        config = self.config
        emit = trickle_fire(trickle, config.trickle_redundancy_k, config.trickle_doublings)
        trickle.seq += 1
        slots = self.trickle_slots[trickle.doublings]
        self.push(slot + slots, _TRICKLE_FIRE, (node, trickle.seq))
        if emit and self.states[node].joined:
            self.push(slot, _DIO_TX, node)

    def _refresh_relay(self, node: int, slot: int) -> None:
        transmitters = self.registry.get(slot)
        selected, rates = run_selection(
            self.states[node],
            self.states,
            self.channel,
            self.etx_of,
            self.config.routing_class,
            self.active_weights,
            interferers=frozenset(transmitters) if transmitters else _NO_TRANSMITTERS,
        )
        self.relay_for[node] = selected
        self.relay_rates[node] = rates

    def _refresh_route(self, node: int, slot: int) -> None:
        """Rebuild what node's hops read: coop_rpl's relay, opp_rpl's
        forwarding set; an rpl hop reads the default parent alone."""
        protocol = self.config.protocol
        if protocol is _COOP_RPL:
            self._refresh_relay(node, slot)
        elif protocol is _OPP_RPL:
            self.fsets[node] = build_forwarding_set(
                self.states[node], self.states, self.channel, self.etx_of,
                self.config.fset_size,
            )

    def _handle_dio_tx(self, slot: int, payload) -> None:
        node = payload
        states = self.states
        state = states[node]
        if not state.joined:
            return
        if self.traffic_started and self.config.protocol is _COOP_RPL:
            self._refresh_relay(node, slot)
        rank = state.rank
        if self.emit is not None:
            self.emit({
                "slot": slot,
                "type": "DIO",
                "sender": node,
                "rank": rank,
                "relay_suboption": self.relay_for.get(node),
            })
        changed: list[int] = []
        # bound once per DIO, not once per neighbour
        trickles = self.trickles
        etx_of = self.etx_of
        hysteresis = self.config.hysteresis
        for neighbor in self.channel.neighbors(node):
            if neighbor == GATEWAY_ID:
                continue
            other = states[neighbor]
            other.last_dio_slot = slot
            if dio_changes_nothing(other, node, rank):
                trickles[neighbor].counter += 1
                continue
            was_parent = other.default_parent
            if not process_dio(other, node, rank, etx_of(neighbor, node), hysteresis):
                trickles[neighbor].counter += 1
                continue
            changed.append(neighbor)
            self.last_change_slot = slot
            self._trickle_restart(neighbor, slot)
            if other.default_parent != was_parent:
                # children and connection counts read default parents only
                self._move_counts(neighbor, was_parent)
                if self.emit is not None:
                    self.push(slot, _DAO_TX, neighbor)
        if self.traffic_started:
            for neighbor in changed:
                self._refresh_route(neighbor, slot)

    def _handle_dis_tx(self, slot: int, payload) -> None:
        node = payload
        state = self.states[node]
        timeout = self.dis_timeout_slots
        if state.joined:
            return
        heard_recently = (
            state.last_dio_slot is not None and slot - state.last_dio_slot < timeout
        )
        if not heard_recently:
            if self.emit is not None:
                self.emit({"slot": slot, "type": "DIS", "sender": node})
            for neighbor in self.channel.neighbors(node):
                self._trickle_restart(neighbor, slot)
        self.push(slot + timeout, _DIS_TX, node)

    def _handle_dao_tx(self, slot: int, payload) -> None:
        node = payload
        state = self.states[node]
        if state.default_parent is None:
            return
        # traffic is upward only, so nothing keeps the downward routes a DAO
        # would install; the advertisement is traced and goes no further
        if self.emit is not None:
            self.emit({
                "slot": slot,
                "type": "DAO",
                "sender": node,
                "target": node,
                "via_parent": state.default_parent,
            })

    def _handle_control(self, slot: int, kind: EventKind, payload) -> None:
        """Process one control-plane event; formation and traffic alike."""
        if kind is _TRICKLE_FIRE:
            self._handle_trickle_fire(slot, payload)
        elif kind is _DIO_TX:
            self._handle_dio_tx(slot, payload)
        elif kind is _DIS_TX:
            self._handle_dis_tx(slot, payload)
        elif kind is _DAO_TX:
            self._handle_dao_tx(slot, payload)

    # --- phases ---

    def run_formation(self) -> None:
        """Process control events until ranks hold still for the
        quiescence window (or the warmup budget runs out)."""
        cfg = self.config
        self._trickle_restart(GATEWAY_ID, 0)
        for node in sorted(self.states):
            if node != GATEWAY_ID:
                self.push(self.dis_timeout_slots, _DIS_TX, node)
        # the gateway's trickle timer always has a fire queued, so the
        # queue never runs dry before one of the two limits is reached
        while True:
            head_slot = self.queue[0][0]
            if head_slot >= self.last_change_slot + cfg.quiescence_slots:
                self.formation_slots = self.last_change_slot + cfg.quiescence_slots
                break
            if head_slot > cfg.warmup_slots:
                self.formation_slots = cfg.warmup_slots
                break
            slot, kind, _, payload = heapq.heappop(self.queue)
            self.now = slot
            self._handle_control(slot, kind, payload)

    def joined_meters(self) -> list[int]:
        return [
            n for n, st in self.states.items() if n != GATEWAY_ID and st.joined
        ]

    def network_view(self) -> NetworkView:
        cfg = self.config
        return NetworkView(
            states=self.states,
            gateway=GATEWAY_ID,
            observe_link=self.observe_link,
            max_retx=cfg.max_retx,
            relay_retx=cfg.relay_retx,
            retx_wait=cfg.retx_wait_slots,
            p_coop=cfg.p_coop,
            relay_for=self.relay_for,
            fsets=self.fsets,
            seed=cfg.seed,
        )

    def run_traffic(self) -> MetricsReport:
        """Generate the packet load and drive every packet to resolution.

        Arrivals are queued one at a time in (slot, packet id) order: the
        first before the loop, each next one when its predecessor is
        handled. An arrival pops after every hop of its slot and runs its
        packet's first hop at once (see EventKind). A hop event carries its
        packet, so only in-flight packets are held; each is folded into the
        tally as it resolves.
        """
        cfg = self.config
        sources = self.joined_meters()
        disconnected = len(sources) < len(self.states) - 1
        self.traffic_started = True
        for node in sorted(sources):
            self._refresh_route(node, self.now)
        arrival_slots, arrival_sources = generate_traffic(cfg, sources, self.formation_slots)
        # a stable sort keeps packet ids rising within a slot. The loop reads
        # array('q') copies, whose items read as ints in less than half the
        # time numpy's take; rebinding each name frees its numpy array at once
        arrivals = iter(_int_array(np.argsort(arrival_slots, kind="stable")))
        arrival_slots = _int_array(arrival_slots)
        arrival_sources = _int_array(arrival_sources)
        first = next(arrivals)
        self.push(arrival_slots[first], _PACKET_GEN, first)
        tally = MetricsTally()
        net = self.network_view()
        queue = self.queue
        # looked up per run, not imported by name, so a stand-in for
        # sim_engine.heapq installed before the run is used
        heappop = heapq.heappop
        push = self.push
        n_packets = cfg.n_packets
        registry = self.registry
        trace_relays = self.emit is not None and cfg.protocol is _COOP_RPL
        while tally.sent < n_packets:  # the queue never runs dry, as in formation
            slot, kind, _, payload = heappop(queue)
            if registry is not None and slot > self.now:
                # transmissions register at their own slot or later, and the
                # registry is read at the current slot only
                for past in range(self.now, slot):
                    registry.pop(past, None)
            self.now = slot
            # hop attempts are most of the traffic phase's events: test them first
            if kind is _HOP_ATTEMPT:
                packet = payload
            elif kind is _PACKET_GEN:
                source = arrival_sources[payload]
                link = LinkLayer(self.channel, cfg.seed, payload, registry)
                packet = Packet(payload, source, slot, source, link=link)
                following = next(arrivals, None)
                if following is not None:
                    push(arrival_slots[following], _PACKET_GEN, following)
            else:
                self._handle_control(slot, kind, payload)
                continue
            # one hop of packet: a queued one, or a new packet's first
            if trace_relays:
                holder = packet.current_holder
            outcome = advance_one_hop(packet, net, packet.link, slot)
            if trace_relays and outcome is not None:
                self.emit({
                    "type": "relay",
                    "slot": slot,
                    "sender": holder,
                    "class": cfg.routing_class.value,
                    "candidates": [
                        {"id": r, "rate": rate}
                        for r, rate in sorted(self.relay_rates.get(holder, {}).items())
                    ],
                    "selected": self.relay_for.get(holder),
                    "used": outcome.relay_used,
                })
            if packet.delivered_slot is None and packet.drop_reason is None:
                push(slot + outcome.slots_consumed, _HOP_ATTEMPT, packet)
            else:
                if self.emit is not None:
                    # the one kind without a "type"; adding one would
                    # change every trace file
                    self.emit({
                        "packet_id": packet.packet_id,
                        "source": packet.source,
                        "status": "delivered" if packet.drop_reason is None else "dropped",
                        "hops": packet.hop_count,
                        "transmissions": packet.total_transmissions,
                        "relay_hops": packet.relay_hops,
                        "delay_slots": packet.delay_slots,
                    })
                tally.fold(packet)
        return tally.report(
            cfg.slot_ms,
            disconnected=disconnected,
            joined_nodes=len(sources),
            total_nodes=len(self.states) - 1,
            formation_slots=self.formation_slots,
        )


def form_network(
    config: ScenarioConfig, emit: Callable[[dict], None] | None = None
) -> Simulation:
    """Form the network; emit, when given, receives every trace record."""
    sim = Simulation(config)
    sim.emit = emit
    sim.run_formation()
    return sim


def run_scenario(
    config: ScenarioConfig, emit: Callable[[dict], None] | None = None
) -> MetricsReport:
    return form_network(config, emit).run_traffic()
