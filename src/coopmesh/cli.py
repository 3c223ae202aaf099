"""Command-line front end: scenario configs, sweeps, CSV output.

The config file is flat ``key = value`` text grouped into sections; every
key is optional and unknown keys are rejected with their line number. A
sweep fans (axis value, seed) points out to worker processes; each point
runs every (protocol, class) variant as its own scenario, forming its own
network (formation ignores the protocol, so every variant of a point sees
the same DAG). It writes one CSV row per run plus mean/stddev rows per
point, and prints the headline protocol comparison when the baselines are
present.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
import types
from dataclasses import dataclass, fields as dataclass_fields, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Literal, Union, get_args, get_origin

from . import sim_engine
from .coop_relay import RateWeights, RoutingClass
from .forwarding import Protocol
from .sim_engine import (
    _FIELD_TYPES,
    SWEPT_FIELD,
    FieldError,
    MetricsReport,
    ScenarioConfig,
    sweep_violation,
)
from .topology import DisconnectedRootError

CSV_COLUMNS = [
    "protocol", "class", "axis", "axis_value", "seed",
    "pdr", "mean_retx", "mean_delay_slots", "mean_delay_ms",
    "sent", "delivered", "dropped",
]

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


def _to_bool(raw, line):
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected true/false, got {raw!r}", line)


# the noun an unknown token of each enum is reported with
_ENUM_NOUNS = {Protocol: "protocol", RoutingClass: "routing class"}


def _to_enum(enum, raw, line=None):
    """The member whose value is raw, case-insensitive."""
    try:
        return enum(raw.lower())
    except ValueError:
        raise ConfigError(f"unknown {_ENUM_NOUNS[enum]} {raw!r}", line)


def _to_choice(choices, raw, line):
    if raw not in choices:
        raise ConfigError(f"expected one of {', '.join(choices)}, got {raw!r}", line)
    return raw


def _to_values(raw, line):
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
        return _to_values
    if issubclass(hint, Enum):
        return partial(_to_enum, hint)
    return {int: _to_int, float: _to_float, bool: _to_bool}[hint]


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
        "reference_distance", "sinr_per_slot",
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
    if isinstance(value, bool):
        return "true" if value else "false"
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


@dataclass(frozen=True)
class SweepSpec:
    axis: str  # "lsr" or "density"
    values: tuple[float, ...]
    variants: tuple[tuple[Protocol, RoutingClass], ...]
    seeds: int

    def __post_init__(self):
        if self.axis not in SWEPT_FIELD:
            raise ConfigError("sweep axis must be 'lsr' or 'density'")
        message = sweep_violation(self.axis, self.values)
        if message is not None:
            raise ConfigError(message)
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")


def default_variants(
    protocols: list[str] | None = None, classes: list[str] | None = None
) -> tuple[tuple[Protocol, RoutingClass], ...]:
    """Expand protocol/class tokens into run variants in canonical order."""
    protocol_list = protocols or ["rpl", "opp_rpl", "coop_rpl"]
    class_list = classes or ["a", "b", "c", "best_effort"]
    variants = []
    for token in protocol_list:
        protocol = _to_enum(Protocol, token)
        if protocol is Protocol.COOP_RPL:
            for cls_token in class_list:
                variants.append((protocol, _to_enum(RoutingClass, cls_token)))
        else:
            variants.append((protocol, RoutingClass.BEST_EFFORT))
    return tuple(variants)


def _variant_config(
    base: ScenarioConfig, spec_axis: str, value: float, seed: int,
    protocol: Protocol, routing_class: RoutingClass,
) -> ScenarioConfig:
    updates = {
        "seed": seed,
        "protocol": protocol,
        "routing_class": routing_class,
        "sweep_axis": None,
        "sweep_values": (),
        SWEPT_FIELD[spec_axis]: value,
    }
    return replace(base, **updates)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _class_token(protocol: Protocol, routing_class: RoutingClass) -> str:
    return routing_class.value if protocol is Protocol.COOP_RPL else "-"


def _sweep_point(args) -> list[dict]:
    """Worker: run every protocol variant on one (axis value, seed) point."""
    base, axis, value, seed, variants = args
    rows = []
    for protocol, routing_class in variants:
        config = _variant_config(base, axis, value, seed, protocol, routing_class)
        row = {
            "protocol": protocol.value,
            "class": _class_token(protocol, routing_class),
            "axis": axis,
            "axis_value": value,
            "seed": seed,
        }
        try:
            report = sim_engine.run_scenario(config)
            row.update(
                pdr=report.pdr,
                mean_retx=report.mean_retransmissions,
                mean_delay_slots=report.mean_delay_slots,
                mean_delay_ms=report.mean_delay_ms,
                sent=report.packets_sent,
                delivered=report.delivered,
                dropped=report.dropped,
            )
        except DisconnectedRootError as exc:  # an unlucky topology, not a bug
            row.update(
                pdr=None, mean_retx=None, mean_delay_slots=None,
                mean_delay_ms=None, sent=None, delivered=None, dropped=None,
                error=str(exc),
            )
        rows.append(row)
    return rows


def run_sweep(
    config: ScenarioConfig,
    spec: SweepSpec,
    out_path: str | Path,
    workers: int = 1,
) -> tuple[list[dict], int]:
    """Run the sweep, write the CSV, return (data rows, failed point count).

    Rows are ordered by (axis value, variant, seed); aggregate rows (seed
    column 'mean' / 'stddev', population stddev) follow the data rows.
    """
    tasks = [
        (config, spec.axis, value, seed, spec.variants)
        for value in spec.values
        for seed in range(1, spec.seeds + 1)
    ]
    if workers > 1:
        # imported here: the pool machinery costs a serial run ~1.4 MB RSS
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(task) for task in tasks]
    # results come value by value, then seed by seed, each point's rows in
    # variant order: one (value, variant) block takes that row of each seed
    rows = []
    aggregates = []
    for first in range(0, len(results), spec.seeds):
        points = results[first:first + spec.seeds]
        for index in range(len(spec.variants)):
            block = [point[index] for point in points]
            rows.extend(block)
            group = [r for r in block if r.get("error") is None]
            if not group:
                continue
            for stat_name, fn in (("mean", statistics.fmean), ("stddev", statistics.pstdev)):
                # the group's labels; seed and every metric column are replaced
                agg = dict(group[0], seed=stat_name)
                for column in ("pdr", "mean_retx", "mean_delay_slots",
                               "mean_delay_ms", "sent", "delivered", "dropped"):
                    samples = [r[column] for r in group if r[column] is not None]
                    agg[column] = fn(samples) if samples else None
                aggregates.append(agg)
    failed = sum(1 for r in rows if r.get("error") is not None)

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows + aggregates:
            writer.writerow([_fmt(row.get(column)) for column in CSV_COLUMNS])
    return rows, failed


def read_sweep_csv(path: str | Path) -> list[dict]:
    with Path(path).open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def emit_comparison(csv_path: str | Path, out=None) -> dict:
    """Print max-over-sweep deltas of each cooperative class against the
    baselines; returns them keyed by class token."""
    out = out if out is not None else sys.stdout
    rows = read_sweep_csv(csv_path)
    means = [r for r in rows if r["seed"] == "mean"]

    def series(protocol, cls):
        return {
            float(r["axis_value"]): r
            for r in means
            if r["protocol"] == protocol and r["class"] == cls
        }

    rpl = series("rpl", "-")
    opp = series("opp_rpl", "-")
    if not rpl:
        raise ValueError("comparison needs rpl baseline rows")
    coop_classes = sorted({r["class"] for r in means if r["protocol"] == "coop_rpl"})
    if not coop_classes:
        raise ValueError("comparison needs at least one coop_rpl variant")
    results = {}
    print("max-over-sweep comparison (mean rows)", file=out)
    header = f"{'class':<14}{'dPDR vs RPL':>14}{'dPDR vs OppRPL':>17}{'delay cut vs RPL':>19}"
    print(header, file=out)
    for cls in coop_classes:
        coop = series("coop_rpl", cls)
        shared = sorted(set(coop) & set(rpl))
        dpdr_rpl = max(
            (float(coop[v]["pdr"]) - float(rpl[v]["pdr"])) * 100.0 for v in shared
        )
        if opp:
            shared_opp = sorted(set(coop) & set(opp))
            dpdr_opp = max(
                (float(coop[v]["pdr"]) - float(opp[v]["pdr"])) * 100.0
                for v in shared_opp
            )
        else:
            dpdr_opp = None
        delay_cuts = []
        for v in shared:
            c, r = coop[v]["mean_delay_slots"], rpl[v]["mean_delay_slots"]
            if c and r and float(r) > 0:
                delay_cuts.append((float(r) - float(c)) / float(r) * 100.0)
        delay_cut = max(delay_cuts) if delay_cuts else None
        results[cls] = {
            "dpdr_vs_rpl_points": dpdr_rpl,
            "dpdr_vs_opp_points": dpdr_opp,
            "delay_reduction_vs_rpl_pct": delay_cut,
        }
        opp_txt = "" if dpdr_opp is None else f"{dpdr_opp:+.1f} pts"
        delay_txt = "" if delay_cut is None else f"{delay_cut:.1f}%"
        print(
            f"{cls:<14}{dpdr_rpl:>+12.1f} pts{opp_txt:>17}{delay_txt:>19}",
            file=out,
        )
    return results


def _report_lines(report: MetricsReport) -> list[str]:
    return [
        f"packets_sent = {report.packets_sent}",
        f"delivered = {report.delivered}",
        f"dropped = {report.dropped}",
        f"pdr = {report.pdr:.4f}",
        f"mean_retransmissions = {report.mean_retransmissions:.4f}",
        f"mean_delay_slots = {_fmt(report.mean_delay_slots)}",
        f"mean_delay_ms = {_fmt(report.mean_delay_ms)}",
        f"joined_nodes = {report.joined_nodes}/{report.total_nodes}"
        + (" (disconnected)" if report.disconnected else ""),
        f"formation_slots = {report.formation_slots}",
    ]


def build_arg_parser() -> argparse.ArgumentParser:
    d = ScenarioConfig()  # the epilog quotes the real defaults
    parser = argparse.ArgumentParser(
        prog="coopmesh",
        description=(
            "Deterministic smart-meter mesh routing simulator: standard, "
            "opportunistic, and cooperative relaying over a gateway-rooted DAG."
        ),
        epilog=(
            f"Defaults: {d.region_side:g} m square region, "
            f"~{d.effective_intensity * d.region_side ** 2:.0f} meters, "
            f"{d.tx_range_m:g} m range, {d.n_packets} packets, slot "
            f"{d.slot_ms:g} ms, trickle {d.trickle_imin_ms:g} ms, retry budget "
            f"{d.max_retx}, relay retry {d.relay_retx}, forwarding set "
            f"{d.fset_size}, cooperation probability {d.p_coop}. The LSR axis "
            "calibrates the detection threshold so a reference link "
            f"({d.reference_distance:g} m) matches the swept value; pass "
            "lsr_mapping=uniform for one shared probability on every link."
        ),
    )
    parser.add_argument("--config", type=Path, help="scenario config file")
    parser.add_argument("--sweep", choices=["lsr", "density"], help="sweep axis")
    parser.add_argument("--values", help="comma-separated sweep values")
    parser.add_argument("--protocols", help="comma list: rpl,opp_rpl,coop_rpl")
    parser.add_argument("--classes", help="comma list: a,b,c,best_effort")
    parser.add_argument("--seeds", type=int, default=20, help="seeds per point")
    parser.add_argument("--out", type=Path, help="CSV output path")
    parser.add_argument("--trace", type=Path, help="JSON-lines trace (single run)")
    parser.add_argument("--workers", type=int, default=1, help="parallel workers")
    parser.add_argument(
        "--quiet", action="store_true", help="skip echoing the resolved config"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        config = parse_scenario(args.config) if args.config else ScenarioConfig()
        axis = args.sweep or config.sweep_axis
        for flag, value in (
            ("--values", args.values), ("--protocols", args.protocols),
            ("--classes", args.classes), ("--out", args.out),
        ):
            if value and not axis:
                raise ConfigError(f"{flag} needs --sweep (or a [sweep] section)")
        if config.sweep_values and not axis:
            raise ConfigError("[sweep] values need an axis (in the file or --sweep)")
        if args.trace and axis:
            raise ConfigError("--trace records a single run, not a sweep")
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        if not args.quiet:
            sys.stdout.write(render_scenario(config))
            sys.stdout.write("\n")
        if axis is None:
            # single run; a trace streams to disk record by record
            if args.trace:
                with args.trace.open("w", encoding="utf-8") as handle:
                    report = sim_engine.run_scenario(
                        config, lambda record: handle.write(json.dumps(record) + "\n")
                    )
            else:
                report = sim_engine.run_scenario(config)
            for line in _report_lines(report):
                print(line)
            return 0
        values = (
            _to_values(args.values, None) if args.values else tuple(config.sweep_values)
        )
        try:
            # the rules a [sweep] section meets, for an axis or values from the flags
            replace(config, sweep_axis=axis, sweep_values=values)
        except FieldError as exc:
            raise ConfigError(f"{'--values' if args.values else '--sweep'}: {exc}")
        protocols = args.protocols.split(",") if args.protocols else None
        classes = args.classes.split(",") if args.classes else None
        spec = SweepSpec(
            axis=axis,
            values=values,
            variants=default_variants(protocols, classes),
            seeds=args.seeds,
        )
        out_path = args.out or Path("sweep.csv")
        rows, failed = run_sweep(config, spec, out_path, workers=args.workers)
        print(f"wrote {out_path} ({len(rows)} data rows, {failed} failed)")
        # a comparison needs both series, and only rows with metrics give one
        scored = {r["protocol"] for r in rows if r.get("error") is None}
        if {"rpl", "coop_rpl"} <= scored:
            emit_comparison(out_path)
        return 2 if failed else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
