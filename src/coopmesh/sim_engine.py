"""Discrete-event scheduler tying the pieces together.

One run has two phases on one event queue: DAG formation (trickle-paced DIOs
plus DIS solicitation and DAO advertisements) until ranks are quiet, then
traffic (uniform random sources and slots) with the control plane still
live. Both phases hand every control event to one dispatch, and from
traffic start on the protocol's routes (coop_rpl's relays, opp_rpl's
forwarding sets) are kept fresh by one refresh rule. Events are processed
by slot, then kind priority, then push order, so a replay with the same
config and seed is bit-identical.

A heap entry is a plain tuple ``(slot, priority, event_id, kind, payload)``.
``event_id`` is unique per run, so tuple comparison is always settled within
the first three fields and never reaches ``kind`` or ``payload``, which need
not be orderable at all.

Packet arrivals are generated up front as arrays and queued one at a time,
each handled arrival queuing the next, so the heap holds at most one; a hop
event's payload is its ``Packet``. See ``Simulation.run_traffic``.

This module alone writes the trace format: each record is a dict literal
built where it is emitted (DIO, DIS and DAO records by their control
handlers, relay and packet records by the traffic loop).
"""

from __future__ import annotations

import heapq
import math
import types
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum
from typing import Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .coop_relay import RateWeights, RoutingClass, WEIGHT_PRESETS, run_selection
from .forwarding import (
    LinkLayer,
    NetworkView,
    Packet,
    PacketStatus,
    Protocol,
    advance_one_hop,
    build_forwarding_set,
)
from .rng import derive_seed
from .rpl_core import (
    Decision,
    EtxEstimate,
    NodeState,
    TrickleState,
    process_dio,
    process_dis,
    trickle_fire,
    update_children_and_connections,
)
from .topology import (
    ChannelMode,
    ChannelParams,
    Channel,
    GATEWAY_ID,
    Region,
    calibrate_params_for_lsr,
    place_nodes,
)

DOMAIN_TRAFFIC = 0x2A

DEFAULT_REGION_SIDE = 300.0
DEFAULT_NODE_COUNT = 80.0
DEFAULT_INTENSITY = DEFAULT_NODE_COUNT / (DEFAULT_REGION_SIDE * DEFAULT_REGION_SIDE)


class Bound(NamedTuple):
    lowest: float
    inclusive: bool  # whether lowest itself is allowed
    highest: float | None = None  # allowed itself
    note: str = ""  # what a value outside [lowest, highest] would be


PROBABILITY = "probability out of range"
# +-300 dB is a factor of 1e30 either way: far past any radio, and far
# inside a float, whose range ends near 3,080 dB
DECIBELS = "beyond any radio's dB range"

# fading-mean SNR window, in dB, for every link a run can read: -300 keeps
# the weakest in-range signal a normal float beside any interference, and
# +2,000 keeps the strongest near-field power, and a threshold calibrated
# on the reference link, finite
LINK_SNR_DB = (-300.0, 2000.0)
LINK_BUDGET_FIELDS = ("tx_power_w", "noise_floor_w", "reference_loss_db", "path_loss_exponent")

# the most meters a run may expect to place: about 200 times the largest
# network run so far (5,105 meters), and far inside the Poisson means that
# placement's draw accepts
MAX_EXPECTED_METERS = 1e6


# field -> its allowed range; ScenarioConfig checks against this table
FIELD_BOUNDS: dict[str, Bound] = {
    "region_side": Bound(0, False),
    "intensity": Bound(0, False),
    "density_ratio": Bound(0, False),
    "p_coop": Bound(0, True, 1, PROBABILITY),
    "n_packets": Bound(1, True),
    "warmup_slots": Bound(1, True),  # the gateway's first DIO is at slot >= 1
    "slot_ms": Bound(0, False),
    "dis_timeout_ms": Bound(0, False),
    "traffic_window_slots": Bound(1, True),
    "quiescence_slots": Bound(2, True),  # the gateway's first DIO is at slot >= 1
    "fset_size": Bound(1, True),
    "max_retx": Bound(0, True),
    "relay_retx": Bound(0, True),
    "retx_wait_slots": Bound(0, True),
    "trickle_doublings": Bound(0, True),
    "hysteresis": Bound(0, True),
    "etx_max": Bound(1, True),
    "trickle_redundancy_k": Bound(1, True),
    "tx_power_w": Bound(1e-30, True, 1e30, DECIBELS),
    "noise_floor_w": Bound(1e-30, True, 1e30, DECIBELS),
    "tx_range_m": Bound(0, False),
    "lsr_value": Bound(0, False, 1, PROBABILITY),
    "reference_loss_db": Bound(-300, True, 300, DECIBELS),
    "sinr_threshold_db": Bound(-300, True, 300, DECIBELS),
    "reference_distance": Bound(0, False),
    "path_loss_exponent": Bound(2, True, 10, "steeper than any measured path loss"),
    "trickle_imin_ms": Bound(0, False),
}


class FieldError(ValueError):
    """Why ScenarioConfig rejects its values: a value of the wrong type or
    out of its bound, a malformed sweep, or settings that together keep
    every meter from joining; ``fields`` names each field the broken rule
    reads."""

    def __init__(self, message: str, fields: tuple[str, ...]):
        super().__init__(message)
        self.fields = fields


def bound_violation(name: str, value) -> str | None:
    """Why value is out of FIELD_BOUNDS for field name, or None when it is
    allowed (fields without a bound always are, and so is None: the type
    check lets it through only where the annotation is optional)."""
    bound = FIELD_BOUNDS.get(name)
    if bound is None or value is None:
        return None
    lowest, inclusive, highest, note = bound
    if (value > lowest or (inclusive and value == lowest)) and (
        highest is None or value <= highest
    ):
        return None
    if highest is None:
        return f"{name} must be {'>=' if inclusive else '>'} {lowest}"
    interval = f"{'[' if inclusive else '('}{lowest}, {highest}]"
    return f"{name} must be in {interval}: {note}"


# sweep axis -> the ScenarioConfig field each of its values sets
SWEPT_FIELD = {"lsr": "lsr_value", "density": "density_ratio"}


def sweep_violation(axis: str | None, values: tuple[float, ...]) -> str | None:
    """Why sweeping axis over values is malformed, or None when it is sound.
    Values must rise strictly; with an axis there must be some, and each
    must pass the FIELD_BOUNDS entry of the field the axis sets."""
    if any(a >= b for a, b in zip(values, values[1:])):
        return "sweep values must be strictly increasing"
    if axis is None:
        return None
    if not values:
        return "sweep_axis needs nonempty sweep_values"
    for value in values:
        message = bound_violation(SWEPT_FIELD[axis], value)
        if message is not None:
            return f"sweep value {value!r}: {message}"
    return None


def _fits(hint, value) -> bool:
    """Whether value is of annotation hint; a bool counts as no number, an
    int counts as a float, a float must be finite, and a Literal takes
    only its listed choices."""
    if hint is float:
        if isinstance(value, float):
            return math.isfinite(value)
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(hint, types.UnionType) or get_origin(hint) is Union:
        return any(_fits(arg, value) for arg in get_args(hint))
    if get_origin(hint) is Literal:
        return value in get_args(hint)
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]  # tuple[item, ...]
        return isinstance(value, tuple) and all(_fits(item, v) for v in value)
    return isinstance(value, hint)


class EventKind(Enum):
    # enum values double as same-slot processing priority
    TRICKLE_FIRE = 0
    DIO_TX = 1
    DIS_TX = 2
    DAO_TX = 3
    PACKET_GEN = 4
    HOP_ATTEMPT = 5


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run (or one sweep of runs) needs."""

    region_side: float = DEFAULT_REGION_SIDE
    intensity: float = DEFAULT_INTENSITY
    density_ratio: float = 1.0
    # channel
    tx_power_w: float = 2.0
    path_loss_exponent: float = 3.0
    reference_loss_db: float = 40.0
    noise_floor_w: float = 1e-13
    tx_range_m: float = 70.0
    sinr_threshold_db: float = 40.0
    lsr_value: float | None = None
    lsr_mapping: Literal["reference", "uniform"] = "reference"  # calibrated or not
    reference_distance: float = 41.5  # desk-scale calibration anchor
    # protocol
    protocol: Protocol = Protocol.RPL
    routing_class: RoutingClass = RoutingClass.BEST_EFFORT
    weights: RateWeights | None = None
    p_coop: float = 1.0
    max_retx: int = 3
    relay_retx: int = 1
    retx_wait_slots: int = 1
    fset_size: int = 3
    # run shape
    n_packets: int = 1000
    warmup_slots: int = 3000
    traffic_window_slots: int | None = None
    quiescence_slots: int = 20
    slot_ms: float = 10.0
    seed: int = 1
    # control plane
    etx_max: float = 16.0
    hysteresis: float = 0.5
    trickle_imin_ms: float = 100.0
    trickle_doublings: int = 8
    trickle_redundancy_k: int = 10
    dis_timeout_ms: float = 500.0
    sinr_per_slot: bool = False
    # sweep description (consumed by the CLI)
    sweep_axis: Literal["lsr", "density"] | None = None
    sweep_values: tuple[float, ...] = ()

    def __post_init__(self):
        for name, (hint, annotation) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not _fits(hint, value):
                raise FieldError(f"{name} must be {annotation}, got {value!r}", (name,))
        for name in FIELD_BOUNDS:
            message = bound_violation(name, getattr(self, name))
            if message is not None:
                raise FieldError(message, (name,))
        message = sweep_violation(self.sweep_axis, self.sweep_values)
        if message is not None:
            raise FieldError(message, ("sweep_axis", "sweep_values"))
        densities = self.sweep_values if self.sweep_axis == "density" else ()
        side = self.region_side
        for name, ratios in (("density_ratio", (self.density_ratio,)), ("sweep_values", densities)):
            # placement draws the meter count from the effective intensity,
            # a Poisson count whose mean is that intensity times the area
            if not all(0.0 < self.intensity * ratio < math.inf for ratio in ratios):
                raise FieldError(
                    f"the effective intensity, intensity * {name}, must be a positive"
                    " finite number",
                    ("intensity", name),
                )
            meters = max((self.intensity * ratio * side * side for ratio in ratios), default=0.0)
            if meters > MAX_EXPECTED_METERS:
                raise FieldError(
                    f"the expected meter count, intensity * {name} * region_side**2,"
                    f" is {meters:.4g}, above {MAX_EXPECTED_METERS:g}",
                    ("intensity", name, "region_side"),
                )
        # placement draws coordinates at 53-bit resolution: two meters lie
        # about region_side * 2**-53 apart at the closest
        log_side, log_2 = math.log10(self.region_side), math.log10(2.0)
        budget_db = 10.0 * math.log10(self.tx_power_w / self.noise_floor_w) - self.reference_loss_db
        for where, log_distance, fields in (
            ("the closest pair of meters", log_side - 53 * log_2, ("region_side",)),
            (
                "the edge of range",
                min(math.log10(self.tx_range_m), log_side + log_2 / 2),
                ("tx_range_m", "region_side"),
            ),
            ("reference_distance", math.log10(self.reference_distance), ("reference_distance",)),
        ):
            snr_db = budget_db - 10.0 * self.path_loss_exponent * log_distance
            if not LINK_SNR_DB[0] <= snr_db <= LINK_SNR_DB[1]:
                raise FieldError(
                    f"the link budget gives {snr_db:.10g} dB SNR at {where}, outside"
                    f" [{LINK_SNR_DB[0]:g}, {LINK_SNR_DB[1]:g}] dB",
                    LINK_BUDGET_FIELDS + fields,
                )
        for name in ("trickle_imin_ms", "dis_timeout_ms"):
            if not math.isfinite(getattr(self, name) / self.slot_ms):
                raise FieldError(
                    f"{name} / slot_ms overflows: too many slots to count",
                    (name, "slot_ms"),
                )
        imin = self.ms_to_slots(self.trickle_imin_ms)
        if self.ms_to_slots(self.dis_timeout_ms) < imin:
            # each DIS resets its neighbors' trickle timers, so the
            # gateway's first DIO keeps moving out and nothing joins
            raise FieldError(
                "dis_timeout_ms must not round to fewer slots than trickle_imin_ms",
                ("dis_timeout_ms", "trickle_imin_ms", "slot_ms"),
            )
        if imin >= self.quiescence_slots:
            # quiescence counts from slot 0, so formation would end before
            # the gateway's first DIO
            raise FieldError(
                "trickle_imin_ms must round to fewer slots than quiescence_slots",
                ("trickle_imin_ms", "quiescence_slots", "slot_ms"),
            )
        if self.warmup_slots < imin:
            # formation stops after warmup_slots, before the gateway's first DIO
            raise FieldError(
                "warmup_slots must not be fewer than the slots trickle_imin_ms rounds to",
                ("warmup_slots", "trickle_imin_ms", "slot_ms"),
            )

    def ms_to_slots(self, ms: float) -> int:
        return max(1, round(ms / self.slot_ms))

    @property
    def effective_intensity(self) -> float:
        return self.intensity * self.density_ratio

    @property
    def window_slots(self) -> int:
        if self.traffic_window_slots is not None:
            return self.traffic_window_slots
        return 2 * self.n_packets

    def channel_params(self) -> ChannelParams:
        base = ChannelParams(
            tx_power_w=self.tx_power_w,
            path_loss_exponent=self.path_loss_exponent,
            reference_loss_db=self.reference_loss_db,
            noise_floor_w=self.noise_floor_w,
            tx_range_m=self.tx_range_m,
            sinr_threshold_db=self.sinr_threshold_db,
        )
        if self.lsr_value is None:
            return base
        if self.lsr_mapping == "uniform":
            return replace(
                base, mode=ChannelMode.SWEPT_LSR, lsr_value=self.lsr_value
            )
        return calibrate_params_for_lsr(base, self.lsr_value, self.reference_distance)

    def active_weights(self) -> RateWeights:
        if self.weights is not None:
            return self.weights
        return WEIGHT_PRESETS[self.routing_class]


# field -> (resolved annotation, its source text for error messages)
_FIELD_TYPES = {
    name: (hint, ScenarioConfig.__dataclass_fields__[name].type)
    for name, hint in get_type_hints(ScenarioConfig).items()
}


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


@dataclass
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
        if packet.status is PacketStatus.DELIVERED:
            self.delivered += 1
            self.delay_slots += packet.delivered_slot - packet.created_slot
        elif packet.status is PacketStatus.DROPPED:
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


class Simulation:
    """Mutable state of one scenario run.

    form_network() builds one of these through the formation phase, which
    never reads the protocol; run_traffic() then plays the config's protocol
    on it. Every run, sweep variants included, forms its own network. Both
    phases dispatch control events through _handle_control; once
    traffic_started is set, _refresh_route keeps each changed node's route
    current.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        params = config.channel_params()
        region = Region(config.region_side)
        self.placements = place_nodes(
            region, config.effective_intensity, config.seed, params
        )
        self.channel = Channel(self.placements, params, config.seed)
        self.states: dict[int, NodeState] = {
            p.node_id: NodeState(p.node_id) for p in self.placements
        }
        self.states[GATEWAY_ID].rank = 0.0
        self.trickles = {
            node: TrickleState(
                config.trickle_imin_ms, config.trickle_doublings,
                config.trickle_redundancy_k, config.trickle_imin_ms,
            )
            for node in self.states
        }
        self.etx_table: dict[tuple[int, int], EtxEstimate] = {}
        # (slot, priority, event_id, kind, payload); see the module docstring
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
        self._counts_fresh = False
        # set by run_traffic before its first route refresh; from then on
        # DIOs refresh the routes their changes touch
        self.traffic_started = False

    # --- plumbing ---

    def push(self, slot: int, kind: EventKind, payload=None) -> None:
        self.event_id += 1
        # _value_ skips the Python-level .value descriptor, once per event
        heapq.heappush(self.queue, (slot, kind._value_, self.event_id, kind, payload))

    def _seed_etx(self, src: int, dst: int) -> EtxEstimate:
        p = self.channel.success_probability(src, dst)
        seedv = self.config.etx_max if p <= 0 else min(self.config.etx_max, 1.0 / p)
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
        est.observe(attempts, successes, self.config.etx_max)

    def _ensure_counts(self) -> None:
        if not self._counts_fresh:
            update_children_and_connections(self.states)
            self._counts_fresh = True

    # --- control plane handlers ---

    def _trickle_restart(self, node: int, slot: int) -> None:
        trickle = self.trickles[node]
        process_dis(trickle)  # interval back to minimum
        trickle.seq += 1
        fire_at = slot + self.config.ms_to_slots(trickle.interval_min_ms)
        self.push(fire_at, EventKind.TRICKLE_FIRE, (node, trickle.seq))

    def _handle_trickle_fire(self, slot: int, payload) -> None:
        node, seq = payload
        trickle = self.trickles[node]
        if seq != trickle.seq:
            return  # superseded by a reset
        emit, next_ms = trickle_fire(trickle)
        trickle.seq += 1
        fire_at = slot + self.config.ms_to_slots(next_ms)
        self.push(fire_at, EventKind.TRICKLE_FIRE, (node, trickle.seq))
        if emit and self.states[node].joined:
            self.push(slot, EventKind.DIO_TX, node)

    def _refresh_relay(self, node: int, slot: int) -> None:
        state = self.states[node]
        if not state.joined or state.default_parent is None:
            self.relay_for[node] = None
            self.relay_rates[node] = {}
            return
        self._ensure_counts()
        interferers = frozenset(self.registry.get(slot, ()))
        selected, rates = run_selection(
            state,
            self.states,
            self.channel,
            self.etx_of,
            self.config.routing_class,
            self.config.active_weights(),
            interferers=interferers,
            slot=slot,
            with_fading=self.config.sinr_per_slot,
        )
        self.relay_for[node] = selected
        self.relay_rates[node] = rates

    def _refresh_route(self, node: int, slot: int) -> None:
        """Rebuild what node's hops read: coop_rpl's relay, opp_rpl's
        forwarding set; an rpl hop reads the default parent alone."""
        protocol = self.config.protocol
        if protocol is Protocol.COOP_RPL:
            self._refresh_relay(node, slot)
        elif protocol is Protocol.OPP_RPL:
            self.fsets[node] = build_forwarding_set(
                self.states[node], self.states, self.channel, self.etx_of,
                self.config.fset_size,
            )

    def _handle_dio_tx(self, slot: int, payload) -> None:
        node = payload
        state = self.states[node]
        if not state.joined:
            return
        if self.traffic_started and self.config.protocol is Protocol.COOP_RPL:
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
        for neighbor in self.channel.neighbors(node):
            if neighbor == GATEWAY_ID:
                continue
            other = self.states[neighbor]
            other.last_dio_slot = slot
            if (
                other.rank is not None
                and other.rank <= rank
                and other.default_parent != node
            ):
                # process_dio would ignore this DIO and change nothing: the
                # receiver does not route through the sender, and the sender's
                # rank plus a link ETX >= 1 cannot beat the receiver's rank
                self.trickles[neighbor].counter += 1
                continue
            was_parent = other.default_parent
            decision = process_dio(
                other, node, rank, self.etx_of(neighbor, node), self.config.hysteresis
            )
            if decision is Decision.IGNORE:
                self.trickles[neighbor].counter += 1
                continue
            changed.append(neighbor)
            self.last_change_slot = slot
            self._trickle_restart(neighbor, slot)
            if other.default_parent != was_parent:
                # children and connection counts read default parents only
                self._counts_fresh = False
                self.push(slot, EventKind.DAO_TX, neighbor)
        if self.traffic_started:
            for neighbor in changed:
                self._refresh_route(neighbor, slot)

    def _handle_dis_tx(self, slot: int, payload) -> None:
        node = payload
        state = self.states[node]
        timeout = self.config.ms_to_slots(self.config.dis_timeout_ms)
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
        self.push(slot + timeout, EventKind.DIS_TX, node)

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
        if kind is EventKind.TRICKLE_FIRE:
            self._handle_trickle_fire(slot, payload)
        elif kind is EventKind.DIO_TX:
            self._handle_dio_tx(slot, payload)
        elif kind is EventKind.DIS_TX:
            self._handle_dis_tx(slot, payload)
        elif kind is EventKind.DAO_TX:
            self._handle_dao_tx(slot, payload)

    # --- phases ---

    def run_formation(self) -> None:
        """Process control events until ranks hold still for the
        quiescence window (or the warmup budget runs out)."""
        cfg = self.config
        self._trickle_restart(GATEWAY_ID, 0)
        dis_at = cfg.ms_to_slots(cfg.dis_timeout_ms)
        for node in sorted(self.states):
            if node != GATEWAY_ID:
                self.push(dis_at, EventKind.DIS_TX, node)
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
            slot, _, _, kind, payload = heapq.heappop(self.queue)
            self.now = slot
            self._handle_control(slot, kind, payload)
        self._ensure_counts()

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
        handled. A hop event carries its packet, so only in-flight packets
        are held; each is folded into the tally as it resolves.
        """
        cfg = self.config
        sources = self.joined_meters()
        disconnected = len(sources) < len(self.states) - 1
        self.traffic_started = True
        for node in sorted(sources):
            self._refresh_route(node, self.now)
        arrival_slots, arrival_sources = generate_traffic(cfg, sources, self.formation_slots)
        # a stable sort keeps packet ids rising within a slot
        arrivals = iter(np.argsort(arrival_slots, kind="stable"))
        packet_gen = EventKind.PACKET_GEN
        first = int(next(arrivals))
        self.push(int(arrival_slots[first]), packet_gen, first)
        tally = MetricsTally()
        net = self.network_view()
        queue = self.queue
        hop_attempt = EventKind.HOP_ATTEMPT
        registry = self.registry
        trace_relays = self.emit is not None and cfg.protocol is Protocol.COOP_RPL
        while tally.sent < cfg.n_packets:  # the queue never runs dry, as in formation
            slot, _, _, kind, payload = heapq.heappop(queue)
            if registry is not None and slot > self.now:
                # transmissions register at their own slot or later, and the
                # registry is read at the current slot only
                for past in range(self.now, slot):
                    registry.pop(past, None)
            self.now = slot
            # hop attempts are most of the traffic phase's events: test them first
            if kind is hop_attempt:
                packet = payload
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
                if packet.status is PacketStatus.IN_FLIGHT:
                    self.push(slot + outcome.slots_consumed, hop_attempt, packet)
                else:
                    if self.emit is not None:
                        # the one kind without a "type"; adding one would
                        # change every trace file
                        self.emit({
                            "packet_id": packet.packet_id,
                            "source": packet.source,
                            "status": packet.status.value,
                            "hops": packet.hop_count,
                            "transmissions": packet.total_transmissions,
                            "relay_hops": packet.relay_hops,
                            "delay_slots": packet.delay_slots,
                        })
                    tally.fold(packet)
            elif kind is packet_gen:
                source = int(arrival_sources[payload])
                link = LinkLayer(self.channel, cfg.seed, payload, registry)
                self.push(slot, hop_attempt, Packet(payload, source, slot, source, link=link))
                following = next(arrivals, None)
                if following is not None:
                    self.push(int(arrival_slots[following]), packet_gen, int(following))
            else:
                self._handle_control(slot, kind, payload)
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
