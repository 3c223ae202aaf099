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
import types
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import IntEnum
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
    ancestor_chain,
    dio_changes_nothing,
    process_dio,
    process_dis,
    trickle_fire,
    update_children_and_connections,
)
from .topology import (
    ChannelParams,
    Channel,
    GATEWAY_ID,
    NodePlacement,
    Region,
    calibrate_params_for_lsr,
    place_nodes,
)

DOMAIN_TRAFFIC = 0x2A

DEFAULT_REGION_SIDE = 300.0
DEFAULT_NODE_COUNT = 80.0
DEFAULT_INTENSITY = DEFAULT_NODE_COUNT / (DEFAULT_REGION_SIDE * DEFAULT_REGION_SIDE)

# relay selection's interferers in a slot nobody transmits in
_NO_TRANSMITTERS: frozenset[int] = frozenset()


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
SWEEP_FIELDS = ("sweep_axis", "sweep_values")

# arrival slots are int64: the window starts where formation ends, by
# warmup_slots at the latest, so warmup_slots + window_slots bounds them
MAX_ARRIVAL_SLOTS = 2**63


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
_IN_FLIGHT, _DELIVERED, _DROPPED = (
    PacketStatus.IN_FLIGHT, PacketStatus.DELIVERED, PacketStatus.DROPPED
)
_IGNORE = Decision.IGNORE


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
        # placement draws the meter count from the effective intensity, a
        # Poisson count whose mean is that intensity times the area
        if not 0.0 < self.effective_intensity < math.inf:
            raise FieldError(
                "the effective intensity, intensity * density_ratio, must be a positive"
                " finite number",
                ("intensity", "density_ratio"),
            )
        meters = self.effective_intensity * self.region_side * self.region_side
        if meters > MAX_EXPECTED_METERS:
            raise FieldError(
                f"the expected meter count, intensity * density_ratio * region_side**2,"
                f" is {meters:.4g}, above {MAX_EXPECTED_METERS:g}",
                ("intensity", "density_ratio", "region_side"),
            )
        if self.warmup_slots + self.window_slots > MAX_ARRIVAL_SLOTS:
            window = "n_packets" if self.traffic_window_slots is None else "traffic_window_slots"
            raise FieldError(
                f"warmup_slots + the traffic window, which {window} sets, must be at most"
                " 2**63 slots: arrival slots are drawn as int64",
                ("warmup_slots", window),
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
        try:  # the longest trickle interval, the last of trickle_slots()
            longest_ms = math.ldexp(self.trickle_imin_ms, self.trickle_doublings)
        except OverflowError:
            longest_ms = math.inf
        for name, ms, fields in (
            ("trickle_imin_ms", self.trickle_imin_ms, ("trickle_imin_ms",)),
            ("dis_timeout_ms", self.dis_timeout_ms, ("dis_timeout_ms",)),
            ("trickle_imin_ms * 2**trickle_doublings", longest_ms,
             ("trickle_doublings", "trickle_imin_ms")),
        ):
            if not math.isfinite(ms / self.slot_ms):
                raise FieldError(
                    f"{name} / slot_ms overflows: too many slots to count", fields + ("slot_ms",)
                )
        imin = self.trickle_slots()[0]
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
        # last: the base config has passed every other rule, so a value can
        # only break a rule that reads the field it sets
        values = self.sweep_values
        if any(a >= b for a, b in zip(values, values[1:])):
            raise FieldError("sweep values must be strictly increasing", SWEEP_FIELDS)
        if self.sweep_axis is None:
            return
        if not values:
            raise FieldError("sweep_axis needs nonempty sweep_values", SWEEP_FIELDS)
        swept_field = SWEPT_FIELD[self.sweep_axis]
        for value in values:
            try:
                self.swept(self.sweep_axis, value)
            except FieldError as exc:
                fields = tuple(
                    name
                    for f in exc.fields
                    for name in (SWEEP_FIELDS if f == swept_field else (f,))
                )
                raise FieldError(f"sweep value {value!r}: {exc}", fields) from None

    def swept(self, axis: str, value: float, **changes) -> ScenarioConfig:
        """The config that value of a sweep on axis runs: value on the field
        the axis sets, no sweep of its own, then changes."""
        return replace(
            self, sweep_axis=None, sweep_values=(), **{SWEPT_FIELD[axis]: value}, **changes
        )

    def ms_to_slots(self, ms: float) -> int:
        return max(1, round(ms / self.slot_ms))

    def trickle_slots(self) -> tuple[int, ...]:
        """Each trickle level's slot count: level d is trickle_imin_ms doubled
        d times. A method, not a cached attribute, so __dict__ holds fields alone."""
        return tuple(
            self.ms_to_slots(math.ldexp(self.trickle_imin_ms, d))
            for d in range(self.trickle_doublings + 1)
        )

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
            return replace(base, lsr_value=self.lsr_value)
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
        if packet.status is _DELIVERED:
            self.delivered += 1
            self.delay_slots += packet.delay_slots
        elif packet.status is _DROPPED:
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
            decision = process_dio(other, node, rank, etx_of(neighbor, node), hysteresis)
            if decision is _IGNORE:
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
            if packet.status is _IN_FLIGHT:
                push(slot + outcome.slots_consumed, _HOP_ATTEMPT, packet)
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
