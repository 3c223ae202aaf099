"""Node placement and physical-layer channel model.

Meters are scattered by a Poisson point process in a square region with the
gateway at the center. Links follow log-distance path loss with Rayleigh
fading. A link beyond tx_range_m never succeeds. Within it, a channel is
swept exactly when ChannelParams.lsr_value is set: every link then succeeds
with that value. Otherwise the channel is physical, and a link succeeds with
the probability of the fading outage form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import derive_seed

# key-domain tag so placement draws never collide with the run's draws
DOMAIN_PLACEMENT = 0x97


class DisconnectedRootError(RuntimeError):
    """Raised when no placement attempt gives the gateway a neighbor."""


@dataclass(frozen=True)
class Region:
    side_length: float

    def __post_init__(self):
        if self.side_length <= 0:
            raise ValueError("side_length must be positive")

    @property
    def area(self) -> float:
        return self.side_length * self.side_length


@dataclass(frozen=True)
class NodePlacement:
    node_id: int
    x: float
    y: float


GATEWAY_ID = 0

# Channel.neighbors searches a grid of square cells. A cell is a hair wider
# than tx_range_m, so a pair that distance() puts within range never lies
# two cells apart, however x / side rounds; and a tiny range widens the
# cells rather than multiplying them past this many per axis.
_CELL_MARGIN = 1.0 + 2.0**-20
_MAX_CELLS_PER_AXIS = 1024


@dataclass(frozen=True)
class ChannelParams:
    """Physical-layer constants; ScenarioConfig.channel_params() supplies
    the values a run uses.

    sinr_threshold_db is the detection threshold of the Rayleigh outage
    form. The channel is swept exactly when lsr_value is set: every link
    within tx_range_m then succeeds with probability lsr_value.
    """

    tx_power_w: float
    path_loss_exponent: float
    reference_loss_db: float
    noise_floor_w: float
    tx_range_m: float
    sinr_threshold_db: float
    lsr_value: float | None = None


# placements place_nodes draws before it gives up on a connected gateway
PLACEMENT_ATTEMPTS = 20


def place_nodes(
    region: Region, intensity: float, seed: int, params: ChannelParams
) -> list[NodePlacement]:
    """Scatter meters by a Poisson point process; gateway at region center.

    Retries with an incremented sub-seed while the gateway would be isolated
    (no meter within tx_range) and raises DisconnectedRootError after
    PLACEMENT_ATTEMPTS placements. Same (region, intensity, seed) gives
    bit-identical placements.
    """
    center = region.side_length / 2.0
    for attempt in range(PLACEMENT_ATTEMPTS):
        rng = np.random.default_rng(derive_seed(seed, DOMAIN_PLACEMENT, attempt))
        count = int(rng.poisson(intensity * region.area))
        xs = rng.uniform(0.0, region.side_length, size=count)
        ys = rng.uniform(0.0, region.side_length, size=count)
        placements = [NodePlacement(GATEWAY_ID, center, center)]
        placements += [
            NodePlacement(i + 1, float(xs[i]), float(ys[i])) for i in range(count)
        ]
        root_ok = any(
            math.hypot(p.x - center, p.y - center) <= params.tx_range_m
            for p in placements[1:]
        )
        if root_ok:
            return placements
    raise DisconnectedRootError("disconnected-root")


def path_loss_linear(distance: float, params: ChannelParams) -> float:
    """Log-distance attenuation as a linear power factor."""
    if distance <= 0:
        raise ValueError("degenerate-link")
    loss_db = params.reference_loss_db + 10.0 * params.path_loss_exponent * math.log10(
        distance
    )
    return 10.0 ** (-loss_db / 10.0)


def link_success_probability(mean_rx_power_w: float, params: ChannelParams) -> float:
    """Per-transmission delivery probability for a link within tx_range.

    A swept channel returns lsr_value identically for every link. A physical
    one uses the Rayleigh outage form P_success = exp(-threshold / mean SNR),
    both linear.
    """
    if params.lsr_value is not None:
        return float(params.lsr_value)
    mean_snr = mean_rx_power_w / params.noise_floor_w
    threshold = 10.0 ** (params.sinr_threshold_db / 10.0)
    return math.exp(-threshold / mean_snr)


def calibrate_params_for_lsr(
    params: ChannelParams, lsr: float, reference_distance: float
) -> ChannelParams:
    """Physical-channel params whose reference link has success probability lsr.

    Sets the detection threshold so a link at reference_distance succeeds
    with probability lsr; closer links do better, longer ones worse, per the
    outage form. This keeps the swept quality axis while preserving per-link
    heterogeneity.
    """
    if not 0.0 < lsr <= 1.0:
        raise ValueError("lsr must be in (0, 1]")
    snr_ref = (
        params.tx_power_w
        * path_loss_linear(reference_distance, params)
        / params.noise_floor_w
    )
    gamma_lin = -math.log(lsr) * snr_ref
    threshold_db = -300.0 if gamma_lin <= 0 else 10.0 * math.log10(gamma_lin)
    return replace(params, lsr_value=None, sinr_threshold_db=threshold_db)


class Channel:
    """Pairwise channel view over a fixed placement; all methods pure."""

    def __init__(self, placements: list[NodePlacement], params: ChannelParams):
        self.placements = placements
        self.params = params
        self._pos = {p.node_id: (p.x, p.y) for p in placements}
        if len(self._pos) != len(placements):
            raise ValueError("node ids must be unique")
        # filled on first read: each pair's mean received power (W) and
        # success probability, each node's neighbours, each pair's relay legs
        self._links: dict[tuple[int, int], float] = {}
        self._success: dict[tuple[int, int], float] = {}
        self._neighbors: dict[int, list[int]] = {}
        self._relay_legs: dict[tuple[int, int], tuple[int, ...]] = {}
        self._ids = tuple(sorted(self._pos))
        # grid cells, each holding its nodes in ascending id order
        xs = [x for x, _ in self._pos.values()]
        ys = [y for _, y in self._pos.values()]
        x0, y0 = min(xs), min(ys)
        extent = max(max(xs) - x0, max(ys) - y0)
        side = max(params.tx_range_m * _CELL_MARGIN, extent / _MAX_CELLS_PER_AXIS)
        self._grid = (x0, y0, side)
        self._cells: dict[tuple[int, int], list[int]] = {}
        for node in self._ids:
            self._cells.setdefault(self._cell_of(node), []).append(node)

    def _cell_of(self, node: int) -> tuple[int, int]:
        x0, y0, side = self._grid
        x, y = self._pos[node]
        return int((x - x0) / side), int((y - y0) / side)

    @property
    def node_ids(self) -> tuple[int, ...]:
        return self._ids

    def distance(self, a: int, b: int) -> float:
        xa, ya = self._pos[a]
        xb, yb = self._pos[b]
        return math.hypot(xa - xb, ya - yb)

    def rx_power(self, src: int, dst: int) -> float:
        """Mean received power (W) at dst of src's transmission, cached."""
        key = (src, dst)
        power = self._links.get(key)
        if power is None:
            power = self.params.tx_power_w * path_loss_linear(
                self.distance(src, dst), self.params
            )
            self._links[key] = power
        return power

    def neighbors(self, node: int) -> list[int]:
        """Nodes within tx_range (closed ball), excluding the node itself, in
        ascending id order. Only the nine grid cells around the node can
        hold one."""
        cached = self._neighbors.get(node)
        if cached is not None:
            return cached
        distance, reach, cells = self.distance, self.params.tx_range_m, self._cells
        cx, cy = self._cell_of(node)
        out = [
            other
            for x in (cx - 1, cx, cx + 1)
            for y in (cy - 1, cy, cy + 1)
            for other in cells.get((x, y), ())
            if other != node and distance(node, other) <= reach
        ]
        out.sort()
        self._neighbors[node] = out
        return out

    def relay_legs(self, src: int, dst: int) -> tuple[int, ...]:
        """Nodes within tx_range of both src and dst, in ascending id order:
        the relays whose two legs exist for a src -> dst hop. Neither end
        is one of them."""
        key = (src, dst)
        cached = self._relay_legs.get(key)
        if cached is None:
            reaches_dst = set(self.neighbors(dst))
            cached = tuple(r for r in self.neighbors(src) if r in reaches_dst)
            self._relay_legs[key] = cached
        return cached

    def compute_sinr(
        self,
        rx: int,
        tx: int,
        concurrent_transmitters: set[int] | frozenset[int],
    ) -> float:
        """Fading-mean SINR in dB at rx for a transmission from tx.

        Every power is the mean received power, the channel that
        link_success_probability's outage form averages over, so the relay
        scorer and the delivery draw see the same links.
        """
        if tx in concurrent_transmitters:
            raise ValueError("transmitter cannot interfere with itself")
        # cached powers are read in place, and a cached 0.0 falls through to
        # rx_power, which returns it again
        links = self._links
        signal = links.get((tx, rx)) or self.rx_power(tx, rx)
        interference = 0.0
        for other in concurrent_transmitters:
            if other == rx:
                continue
            interference += links.get((other, rx)) or self.rx_power(other, rx)
        return 10.0 * math.log10(signal / (self.params.noise_floor_w + interference))

    def success_probability(self, src: int, dst: int) -> float:
        """Cached per-pair success probability, slot-invariant; 0.0 for a pair
        beyond tx_range_m."""
        key = (src, dst)
        cached = self._success.get(key)
        if cached is None:
            if self.distance(src, dst) > self.params.tx_range_m:
                cached = 0.0
            else:
                cached = link_success_probability(self.rx_power(src, dst), self.params)
            self._success[key] = cached
        return cached
