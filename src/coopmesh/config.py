"""What a run is, what is allowed, and how it is written.

``ScenarioConfig`` holds every value one run, or one sweep of runs, reads.
Its constructor checks each field against its annotation and
``FIELD_BOUNDS``, then the rules that read several fields, and raises
``FieldError`` naming the fields a broken rule reads. The config file is flat
``key = value`` text grouped into the sections of ``_SCHEMA``; every key is
optional, and a bad key or value is a ``ConfigError`` with its line number.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, fields as dataclass_fields, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

from .coop_relay import RateWeights, RoutingClass, WEIGHT_PRESETS
from .forwarding import Protocol
from .topology import ChannelParams, calibrate_params_for_lsr

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


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _to_int(raw, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected integer, got {raw!r}", line)


def _to_float(raw, line):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected number, got {raw!r}", line)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}", line)
    return value


# the noun an unknown token of each enum is reported with
_ENUM_NOUNS = {Protocol: "protocol", RoutingClass: "routing class"}


def to_enum(enum, raw, line=None):
    """The member whose value is raw, case-insensitive."""
    try:
        return enum(raw.lower())
    except ValueError:
        raise ConfigError(f"unknown {_ENUM_NOUNS[enum]} {raw!r}", line)


def _to_choice(choices, raw, line):
    if raw not in choices:
        raise ConfigError(f"expected one of {', '.join(choices)}, got {raw!r}", line)
    return raw


def to_values(raw, line):
    try:
        values = tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {raw!r}", line)
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"expected finite numbers, got {raw!r}", line)
    if not values:
        raise ConfigError("sweep values must be nonempty", line)
    return values


def _converter(hint):
    """The converter for a ScenarioConfig field of annotation hint; an
    optional field converts like its non-None part."""
    if isinstance(hint, types.UnionType) or get_origin(hint) is Union:
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    if get_origin(hint) is Literal:
        return partial(_to_choice, get_args(hint))
    if get_origin(hint) is tuple:  # tuple[float, ...]
        return to_values
    if issubclass(hint, Enum):
        return partial(to_enum, hint)
    return {int: _to_int, float: _to_float}[hint]


# section -> its keys, in file order. A key names the ScenarioConfig field it
# sets, except that [sweep] keys drop the field's "sweep_" prefix and the
# [weights] keys together set one RateWeights.
_SCHEMA = {
    "scenario": (
        "seed", "region_side", "intensity", "density_ratio", "protocol",
        "routing_class", "p_coop", "max_retx", "relay_retx", "retx_wait_slots",
        "fset_size", "n_packets", "warmup_slots", "traffic_window_slots",
        "quiescence_slots", "slot_ms",
    ),
    "channel": (
        "tx_power_w", "path_loss_exponent", "reference_loss_db", "noise_floor_w",
        "tx_range_m", "sinr_threshold_db", "lsr_value", "lsr_mapping",
        "reference_distance",
    ),
    "rpl": (
        "etx_max", "hysteresis", "trickle_imin_ms", "trickle_doublings",
        "trickle_redundancy_k", "dis_timeout_ms",
    ),
    "weights": tuple(f.name for f in dataclass_fields(RateWeights)),
    "sweep": ("axis", "values"),
}


def _field_name(section: str, key: str) -> str:
    return f"sweep_{key}" if section == "sweep" else key


def parse_scenario_text(text: str) -> ScenarioConfig:
    """Parse config text; see parse_scenario for the file variant."""
    section = None
    fields: dict[str, object] = {}
    field_lines: dict[str, int] = {}
    weights: dict[str, float] = {}
    weights_line: int | None = None
    key_lines: dict[tuple[str, str], int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        first = key_lines.setdefault((section, key), lineno)
        if first != lineno:
            raise ConfigError(f"{key!r} in [{section}] is already set at line {first}", lineno)
        if not raw_value:
            continue  # blank value keeps the default
        if section == "weights":
            weights[key] = _to_float(raw_value, lineno)
            weights_line = weights_line or lineno
            continue
        attr = _field_name(section, key)
        fields[attr] = _converter(_FIELD_TYPES[attr][0])(raw_value, lineno)
        field_lines[attr] = lineno
    if weights:
        missing = [k for k in _SCHEMA["weights"] if k not in weights]
        if missing:
            raise ConfigError(f"[weights] missing {', '.join(missing)}", weights_line)
        try:
            fields["weights"] = RateWeights(**weights)
        except ValueError as exc:
            raise ConfigError(str(exc), weights_line)
    try:
        return ScenarioConfig(**fields)
    except FieldError as exc:
        # the constructor checks every value; point at the last line that
        # set a field the broken rule reads
        lines = [field_lines[f] for f in exc.fields if f in field_lines]
        raise ConfigError(str(exc), max(lines, default=None))


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Load a scenario config file; empty file means all defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_scenario_text(path.read_text(encoding="utf-8"))


def _render_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value)


def render_scenario(config: ScenarioConfig) -> str:
    """Resolved config in the file format; re-parsing it round-trips.
    [weights] and [sweep] appear only when set."""
    blocks = []
    for section, keys in _SCHEMA.items():
        owner = config.weights if section == "weights" else config
        if owner is None:
            continue
        values = [getattr(owner, _field_name(section, key)) for key in keys]
        if section == "sweep" and not any(values):
            continue
        lines = [f"{key} = {_render_value(v)}" for key, v in zip(keys, values)]
        blocks.append("\n".join([f"[{section}]", *lines]))
    return "\n\n".join(blocks) + "\n"
