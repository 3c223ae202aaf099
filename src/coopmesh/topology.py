"""Node placement and physical-layer channel model.

Meters are scattered by a Poisson point process in a square region with the
gateway at the center. Links follow log-distance path loss with Rayleigh
fading; per-link success probability comes either from the fading outage
form (physical mode) or from a single swept value (swept-LSR mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .rng import derive_seed, uniform

# key-domain tags so draws for different purposes never collide
DOMAIN_FADING = 0xFA
DOMAIN_PLACEMENT = 0x97


class DisconnectedRootError(RuntimeError):
    """Raised when no placement attempt gives the gateway a neighbor."""


class ChannelMode(Enum):
    PHYSICAL = "physical"
    SWEPT_LSR = "swept_lsr"


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
    form.
    """

    tx_power_w: float
    path_loss_exponent: float
    reference_loss_db: float
    noise_floor_w: float
    tx_range_m: float
    sinr_threshold_db: float
    mode: ChannelMode = ChannelMode.PHYSICAL
    lsr_value: float | None = None


@dataclass(frozen=True)
class LinkModel:
    mean_rx_power_w: float
    exists: bool  # within tx_range


def place_nodes(
    region: Region,
    intensity: float,
    seed: int,
    params: ChannelParams,
    max_retries: int = 20,
) -> list[NodePlacement]:
    """Scatter meters by a Poisson point process; gateway at region center.

    Retries with an incremented sub-seed while the gateway would be isolated
    (no meter within tx_range) and raises DisconnectedRootError when the
    retry budget runs out. Same (region, intensity, seed) gives bit-identical
    placements.
    """
    center = region.side_length / 2.0
    for attempt in range(max_retries):
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


def fading_gain(src: int, dst: int, slot: int, seed: int) -> float:
    """Rayleigh power gain: exponential(mean 1), keyed by (link, slot, seed)."""
    u = uniform(seed, DOMAIN_FADING, src, dst, slot)
    return -math.log(1.0 - u)


def link_success_probability(link: LinkModel, params: ChannelParams) -> float:
    """Per-transmission delivery probability for a link.

    Swept-LSR mode returns the swept value identically for every link.
    Physical mode uses the Rayleigh outage form
    P_success = exp(-threshold / mean SNR), both linear.
    """
    if not link.exists:
        return 0.0
    if params.mode is ChannelMode.SWEPT_LSR:
        return float(params.lsr_value)
    mean_snr = link.mean_rx_power_w / params.noise_floor_w
    threshold = 10.0 ** (params.sinr_threshold_db / 10.0)
    return math.exp(-threshold / mean_snr)


def calibrate_params_for_lsr(
    params: ChannelParams, lsr: float, reference_distance: float
) -> ChannelParams:
    """Physical-mode params whose reference link has success probability lsr.

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
    return replace(
        params, mode=ChannelMode.PHYSICAL, lsr_value=None, sinr_threshold_db=threshold_db
    )


@dataclass
class Channel:
    """Pairwise channel view over a fixed placement; all methods pure."""

    placements: list[NodePlacement]
    params: ChannelParams
    seed: int
    _pos: dict[int, tuple[float, float]] = field(init=False, repr=False)
    _links: dict[tuple[int, int], LinkModel] = field(init=False, repr=False)
    _neighbors: dict[int, list[int]] = field(init=False, repr=False)
    _relay_legs: dict[tuple[int, int], tuple[int, ...]] = field(init=False, repr=False)
    _success: dict[tuple[int, int], float] = field(init=False, repr=False)
    _ids: tuple[int, ...] = field(init=False, repr=False)
    _grid: tuple[float, float, float] = field(init=False, repr=False)  # x0, y0, side
    _cells: dict[tuple[int, int], list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self._pos = {p.node_id: (p.x, p.y) for p in self.placements}
        if len(self._pos) != len(self.placements):
            raise ValueError("node ids must be unique")
        self._links = {}
        self._neighbors = {}
        self._relay_legs = {}
        self._success = {}
        self._ids = tuple(sorted(self._pos))
        # grid cells, each holding its nodes in ascending id order
        xs = [x for x, _ in self._pos.values()]
        ys = [y for _, y in self._pos.values()]
        x0, y0 = min(xs), min(ys)
        extent = max(max(xs) - x0, max(ys) - y0)
        side = max(self.params.tx_range_m * _CELL_MARGIN, extent / _MAX_CELLS_PER_AXIS)
        self._grid = (x0, y0, side)
        self._cells = {}
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

    def link(self, src: int, dst: int) -> LinkModel:
        key = (src, dst)
        cached = self._links.get(key)
        if cached is not None:
            return cached
        d = self.distance(src, dst)
        mean_rx = self.params.tx_power_w * path_loss_linear(d, self.params)
        link = LinkModel(mean_rx, d <= self.params.tx_range_m)
        self._links[key] = link
        return link

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
        slot: int,
        with_fading: bool,
    ) -> float:
        """SINR in dB at rx for a transmission from tx.

        with_fading=False evaluates the fading-mean channel (gain 1), the
        form used for relay eligibility; with_fading=True draws the keyed
        per-slot gains for every involved link.
        """
        if tx in concurrent_transmitters:
            raise ValueError("transmitter cannot interfere with itself")
        # the fading mean is gain 1, which is left out rather than multiplied
        # in; cached links are read in place
        links = self._links
        signal = (links.get((tx, rx)) or self.link(tx, rx)).mean_rx_power_w
        if with_fading:
            signal *= fading_gain(tx, rx, slot, self.seed)
        interference = 0.0
        for other in concurrent_transmitters:
            if other == rx:
                continue
            power = (links.get((other, rx)) or self.link(other, rx)).mean_rx_power_w
            if with_fading:
                power *= fading_gain(other, rx, slot, self.seed)
            interference += power
        return 10.0 * math.log10(signal / (self.params.noise_floor_w + interference))

    def success_probability(self, src: int, dst: int) -> float:
        """Cached per-pair success probability (slot-invariant in both modes)."""
        key = (src, dst)
        cached = self._success.get(key)
        if cached is None:
            cached = link_success_probability(self.link(src, dst), self.params)
            self._success[key] = cached
        return cached
