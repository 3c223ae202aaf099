"""The benchmark's workloads and the output check applied to every run.

A workload turns a base seed into a list of units. A unit is one call into
coopmesh's public API (``run_scenario`` or ``run_sweep``), split into
``call`` (the timed part) and ``check`` (the output check, untimed). The
benchmark's rounds run every unit of the list once; rounds repeat until the
measuring time is spent.

Every call goes through the module attribute (``sim_engine.run_scenario``,
``cli.run_sweep``) at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from coopmesh import cli, sim_engine
from coopmesh.coop_relay import RoutingClass
from coopmesh.forwarding import Protocol
from coopmesh.sim_engine import ScenarioConfig

DEFAULT_SEED = 1

# Round sizes: scenarios per round for the run_scenario workloads, scenario
# seeds per LSR value for the sweep. Work per packet (events, transmits)
# varies by 5-15% between topologies, so a round averages over many: at 6
# topologies the choice of base seed alone moved coop_dense by 5-10%. A
# round takes 10-20 s, so a 30 s run repeats part of it to check outputs.
SCENARIO_COUNT = {"rpl_lossy": 16, "coop_dense": 12}
SWEEP_SEEDS = 1
SWEEP_LSR = (0.5, 0.7, 0.9)
SWEEP_VARIANTS = cli.default_variants()

# SHA-256 of one round's outputs at DEFAULT_SEED and the sizes above.
PINNED_DIGESTS = {
    "sweep_lsr": "4230b77eb1e6d3b400ebd95fdd349982a1f870c9387eaef66fbfb4d4d9a7f737",
    "coop_dense": "87272bb07b1d6b78e130f0fff43bb3cf796f30da817778c8a9dd81ee64c8d668",
    "rpl_lossy": "df3f66b1d87084e210bdce4f7799150a3936499bb04f3d2fabea3069df28b57a",
}

@dataclass
class Outcome:
    """What one unit produced: resolved packets, runs, failures, and the
    bytes that stand for its simulated outputs."""

    packets: int = 0
    attempted: int = 0
    failed: int = 0
    record: bytes = b""
    errors: list[str] = field(default_factory=list)


def rpl_lossy_config(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        protocol=Protocol.RPL, lsr_value=0.5, n_packets=5000, seed=seed
    )


def coop_dense_config(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        protocol=Protocol.COOP_RPL,
        routing_class=RoutingClass.BEST_EFFORT,
        density_ratio=2.0,
        lsr_value=0.5,
        n_packets=5000,
        seed=seed,
    )


SCENARIO_CONFIGS = {"rpl_lossy": rpl_lossy_config, "coop_dense": coop_dense_config}


def sweep_lsr_values(seed: int) -> tuple[float, ...]:
    """LSR grid for a base seed.

    run_sweep numbers its scenario seeds 1..N itself, so the base seed
    enters the sweep by shifting the LSR grid in ten steps of 0.005; the
    default seed gives the plain {0.5, 0.7, 0.9} grid.
    """
    shift = 0.005 * ((seed - DEFAULT_SEED) % 10)
    return tuple(round(v + shift, 4) for v in SWEEP_LSR)


@dataclass(frozen=True)
class ScenarioUnit:
    config: ScenarioConfig

    runs = 1

    def call(self):
        return sim_engine.run_scenario(self.config)

    def check(self, report) -> Outcome:
        errors = []
        if not (
            report.packets_sent
            == report.delivered + report.dropped
            == self.config.n_packets
        ):
            errors.append(
                f"seed {self.config.seed}: conservation: sent {report.packets_sent}, "
                f"delivered {report.delivered}, dropped {report.dropped}"
            )
        elif report.pdr != report.delivered / report.packets_sent:
            errors.append(f"seed {self.config.seed}: pdr {report.pdr} != delivered/sent")
        record = json.dumps(
            {"seed": self.config.seed, **asdict(report)}, sort_keys=True
        ).encode()
        return Outcome(
            packets=0 if errors else report.delivered + report.dropped,
            attempted=1,
            failed=1 if errors else 0,
            record=record,
            errors=errors,
        )


@dataclass(frozen=True)
class SweepUnit:
    config: ScenarioConfig
    spec: cli.SweepSpec
    out_path: Path

    @property
    def runs(self) -> int:
        return len(self.spec.values) * self.spec.seeds * len(self.spec.variants)

    def call(self):
        return cli.run_sweep(self.config, self.spec, self.out_path, workers=1)

    def check(self, result) -> Outcome:
        data = self.out_path.read_bytes()
        rows = [
            r for r in csv.DictReader(io.StringIO(data.decode("utf-8")))
            if r["seed"] not in ("mean", "stddev")
        ]
        errors = []
        if len(rows) != self.runs:
            errors.append(f"sweep wrote {len(rows)} data rows, expected {self.runs}")
        packets = failed = 0
        for row in rows:
            where = f"{row['protocol']}/{row['class']} lsr={row['axis_value']} seed={row['seed']}"
            if row["pdr"] == "":
                failed += 1
                errors.append(f"{where}: run failed")
                continue
            sent, delivered, dropped = (
                int(row[k]) for k in ("sent", "delivered", "dropped")
            )
            if not sent == delivered + dropped == self.config.n_packets:
                failed += 1
                errors.append(f"{where}: conservation: {sent} != {delivered} + {dropped}")
            elif abs(float(row["pdr"]) - delivered / sent) > 1e-9:
                failed += 1
                errors.append(f"{where}: pdr {row['pdr']} != delivered/sent")
            else:
                packets += sent
        failed = min(self.runs, failed + max(0, self.runs - len(rows)))
        return Outcome(packets, self.runs, failed, data, errors)


def sweep_unit(values: tuple[float, ...], seeds: int, work_dir: Path) -> SweepUnit:
    spec = cli.SweepSpec(axis="lsr", values=values, variants=SWEEP_VARIANTS, seeds=seeds)
    return SweepUnit(ScenarioConfig(), spec, work_dir / "sweep.csv")


def build_units(name: str, seed: int, work_dir: Path, size: int | None = None) -> list:
    """The units of one round. ``size`` overrides the round size (scenarios,
    or sweep seeds per LSR value); the default is the benchmark's."""
    if name == "sweep_lsr":
        return [sweep_unit(sweep_lsr_values(seed), size or SWEEP_SEEDS, work_dir)]
    make = SCENARIO_CONFIGS[name]
    count = size or SCENARIO_COUNT[name]
    return [ScenarioUnit(make(seed + k)) for k in range(count)]


def build_warmup(name: str, seed: int, work_dir: Path):
    """One small untimed run that loads every code path of the workload."""
    if name == "sweep_lsr":
        return sweep_unit(sweep_lsr_values(seed)[:1], 1, work_dir)
    return ScenarioUnit(SCENARIO_CONFIGS[name](seed))


def execute(unit, now=perf_counter) -> tuple[float, Outcome]:
    """Run one unit: (seconds spent in the call by ``now``, checked outcome).

    Any exception counts every run of the unit as failed, so the benchmark
    reports it instead of stopping.
    """
    start = now()
    try:
        result = unit.call()
    except Exception:
        elapsed = now() - start
        return elapsed, Outcome(
            attempted=unit.runs, failed=unit.runs, errors=[traceback.format_exc()]
        )
    elapsed = now() - start
    return elapsed, unit.check(result)


def digest(records: list[bytes]) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(len(record).to_bytes(8, "little"))
        h.update(record)
    return h.hexdigest()
