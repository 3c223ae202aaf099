"""Acceptance suite: the evaluation-level checks the package must satisfy.

Criteria 1-5 are trend/band checks over multi-seed sweep means; criterion 6
is the exact property suite. Each test prints one PASS/FAIL line. The big
sweeps run once per session and are shared across criteria.
"""

import math
import random
import time
from pathlib import Path

import pytest

from coopmesh.cli import SweepSpec, default_variants, read_sweep_csv, run_sweep
from coopmesh.coop_relay import (
    CandidateMetrics,
    RoutingClass,
    WEIGHT_PRESETS,
    compute_rates,
    eligible_class_a,
    eligible_class_b,
    eligible_class_c,
    filter_candidates_by_rank,
    select_relay,
    term_bounds,
)
from coopmesh.forwarding import Protocol, forward_hop
from coopmesh.rpl_core import compute_etx
from coopmesh.sim_engine import ScenarioConfig, form_network
from coopmesh.topology import GATEWAY_ID, path_loss_linear

DATA_DIR = Path(__file__).parent / "data"

LSR_VALUES = (0.5, 0.6, 0.7, 0.8, 0.9)
DENSITY_VALUES = (0.6, 0.8, 1.0, 1.2, 1.4)
SEEDS = 20
VARIANTS = default_variants()  # rpl, opp_rpl, coop_rpl x {a,b,c,best_effort}
PROTOCOL_KEYS = [
    ("rpl", "-"),
    ("opp_rpl", "-"),
    ("coop_rpl", "a"),
    ("coop_rpl", "b"),
    ("coop_rpl", "c"),
    ("coop_rpl", "best_effort"),
]
COOP_KEYS = [k for k in PROTOCOL_KEYS if k[0] == "coop_rpl"]


def _verdict(number, name, passed):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


class SweepTable:
    def __init__(self, csv_rows, values):
        self.values = values
        self._means = {
            (r["protocol"], r["class"], float(r["axis_value"])): r
            for r in csv_rows
            if r["seed"] == "mean"
        }
        self.data_rows = [r for r in csv_rows if r["seed"] not in ("mean", "stddev")]

    def mean(self, protocol, cls, value, column):
        cell = self._means[(protocol, cls, value)][column]
        return float(cell) if cell else None

    def series(self, protocol, cls, column):
        return [self.mean(protocol, cls, v, column) for v in self.values]


@pytest.fixture(scope="module")
def lsr_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "lsr.csv"
    spec = SweepSpec("lsr", LSR_VALUES, VARIANTS, SEEDS)
    started = time.perf_counter()
    run_sweep(ScenarioConfig(), spec, out, workers=2)
    elapsed = time.perf_counter() - started
    return SweepTable(read_sweep_csv(out), LSR_VALUES), elapsed


@pytest.fixture(scope="module")
def density_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "density.csv"
    spec = SweepSpec("density", DENSITY_VALUES, VARIANTS, SEEDS)
    run_sweep(ScenarioConfig(), spec, out, workers=2)
    return SweepTable(read_sweep_csv(out), DENSITY_VALUES)


@pytest.fixture(scope="module")
def formed_topologies():
    sims = []
    for seed in range(1, 51):
        config = ScenarioConfig(
            region_side=220.0, intensity=45.0 / 220.0**2, lsr_value=0.6, seed=seed,
            n_packets=1,
        )
        sims.append((config, form_network(config)))
    return sims


def test_criterion_1_pdr_rises_with_lsr(lsr_sweep):
    table, elapsed = lsr_sweep
    strict = all(
        all(a < b for a, b in zip(series, series[1:]))
        for series in (table.series(p, c, "pdr") for p, c in PROTOCOL_KEYS)
    )
    be_dominates = all(
        table.mean("coop_rpl", "best_effort", v, "pdr") >= table.mean("rpl", "-", v, "pdr")
        for v in LSR_VALUES
    )
    in_time = elapsed < 120.0
    print(f"  sweep wall time: {elapsed:.0f}s")
    _verdict(1, "PDR strictly increasing, best-effort >= RPL, under 2 min",
             strict and be_dominates and in_time)


def test_criterion_2_pdr_improvement_bands(lsr_sweep):
    table, _ = lsr_sweep
    d_rpl = max(
        (table.mean("coop_rpl", "best_effort", v, "pdr") - table.mean("rpl", "-", v, "pdr"))
        * 100.0
        for v in LSR_VALUES
    )
    low = LSR_VALUES[0]
    d_opp_low = (
        table.mean("coop_rpl", "best_effort", low, "pdr")
        - table.mean("opp_rpl", "-", low, "pdr")
    ) * 100.0
    print(f"  max dPDR vs RPL: {d_rpl:+.1f} pts; dPDR vs OppRPL at LSR {low}: {d_opp_low:+.1f} pts")
    _verdict(2, "best-effort PDR gain bands vs RPL and OppRPL",
             10.0 <= d_rpl <= 30.0 and 3.0 <= d_opp_low <= 20.0)


def test_criterion_3_delay_reduction_band(lsr_sweep):
    table, _ = lsr_sweep
    cuts = [
        (table.mean("rpl", "-", v, "mean_delay_slots")
         - table.mean("coop_rpl", "best_effort", v, "mean_delay_slots"))
        / table.mean("rpl", "-", v, "mean_delay_slots") * 100.0
        for v in LSR_VALUES
    ]
    best = max(cuts)
    print(f"  max delay reduction vs RPL: {best:+.1f}%")
    _verdict(3, "best-effort delay reduction vs RPL in [5%, 30%]", 5.0 <= best <= 30.0)


def test_criterion_4_retransmission_trends(lsr_sweep):
    table, _ = lsr_sweep
    strictly_down = all(
        all(a > b for a, b in zip(series, series[1:]))
        for series in (table.series(p, c, "mean_retx") for p, c in PROTOCOL_KEYS)
    )
    a_minimal = all(
        table.mean("coop_rpl", "a", v, "mean_retx")
        <= min(table.mean("coop_rpl", c, v, "mean_retx") for _, c in COOP_KEYS if c != "a")
        for v in LSR_VALUES
    )
    _verdict(4, "retransmissions fall with LSR, class A minimal among classes",
             strictly_down and a_minimal)


def test_criterion_5_pdr_rises_with_density(density_sweep):
    table = density_sweep
    non_decreasing = all(
        all(a <= b for a, b in zip(series, series[1:]))
        for series in (table.series(p, c, "pdr") for p, c in PROTOCOL_KEYS)
    )
    _verdict(5, "PDR non-decreasing in density ratio for every protocol", non_decreasing)


# --- criterion 6: exact property suite ---


def test_criterion_6a_etx_oracle():
    rng = random.Random(60601)
    ok = True
    for _ in range(1000):
        attempts = rng.randint(1, 500)
        successes = rng.randint(1, attempts)
        ok = ok and compute_etx(attempts, successes) == attempts / successes
    _verdict("6a", "ETX equals attempts/successes on 1000 random pairs", ok)


def _mean_snr_db(channel, tx, rx):
    # independent path: raw budget arithmetic, no Channel caching involved
    d = channel.distance(tx, rx)
    power = channel.params.tx_power_w * path_loss_linear(d, channel.params)
    return 10.0 * math.log10(power / channel.params.noise_floor_w)


def test_criterion_6b_eligibility_recheck_on_topologies(formed_topologies):
    checked = 0
    ok = True
    for config, sim in formed_topologies:
        for routing_class in RoutingClass:
            variant = ScenarioConfig(
                **{**config.__dict__, "protocol": Protocol.COOP_RPL,
                   "routing_class": routing_class}
            )
            clone = form_network(variant)
            for node in sorted(clone.joined_meters()):
                clone._refresh_relay(node, 0)
                relay = clone.relay_for.get(node)
                state = clone.states[node]
                # rank filter: subset of neighbors, strictly lower rank
                neighbor_states = [
                    clone.states[n] for n in clone.channel.neighbors(node)
                ]
                ranked = filter_candidates_by_rank(state, neighbor_states)
                neighbor_ids = set(clone.channel.neighbors(node))
                ok = ok and ranked <= neighbor_ids
                ok = ok and all(
                    clone.states[r].rank < state.rank for r in ranked
                )
                if relay is None:
                    continue
                checked += 1
                parent = state.default_parent
                sinr_s_r = _mean_snr_db(clone.channel, node, relay)
                sinr_r_d = _mean_snr_db(clone.channel, relay, parent)
                sinr_s_d = _mean_snr_db(clone.channel, node, parent)
                a_holds = sinr_s_r > sinr_s_d and sinr_r_d > sinr_s_d
                b_holds = (
                    clone.states[relay].active_connections < state.active_connections
                    and len(clone.states[relay].children) < len(state.children)
                )
                c_holds = clone.etx_of(node, parent) > (
                    clone.etx_of(node, relay) + clone.etx_of(relay, parent)
                )
                if routing_class is RoutingClass.CLASS_A:
                    ok = ok and a_holds
                elif routing_class is RoutingClass.CLASS_B:
                    ok = ok and b_holds
                elif routing_class is RoutingClass.CLASS_C:
                    ok = ok and c_holds
                else:
                    ok = ok and (a_holds or b_holds or c_holds)
    print(f"  selected relays re-checked: {checked}")
    _verdict("6b", "class inequalities hold for every selected relay, 50 topologies",
             ok and checked > 0)


def test_criterion_6c_argmax_scale_invariance():
    rng = random.Random(60603)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 8)
        cands = [
            CandidateMetrics(
                relay=relay,
                sinr_s_r=rng.uniform(-5, 40), sinr_r_d=rng.uniform(-5, 40),
                sinr_s_d=rng.uniform(-5, 40),
                nac_r=rng.randint(0, 20), nac_s=rng.randint(0, 20),
                nch_r=rng.randint(0, 10), nch_s=rng.randint(0, 10),
                etx_s_r=rng.uniform(1, 16), etx_r_d=rng.uniform(1, 16),
                etx_s_d=rng.uniform(1, 16),
            )
            for relay in rng.sample(range(1, 999), n)
        ]

        class Scaled:
            def __init__(self, w, c):
                self.w_sinr, self.w_traffic = w.w_sinr * c, w.w_traffic * c
                self.w_nch, self.w_etx = w.w_nch * c, w.w_etx * c

        weights = WEIGHT_PRESETS[RoutingClass.BEST_EFFORT]
        scaled = Scaled(weights, rng.uniform(0.01, 100.0))
        ok = ok and select_relay(cands, weights) == select_relay(cands, scaled)
    _verdict("6c", "argmax invariant under weight scaling, 1000 candidate sets", ok)


def test_criterion_6d_dag_acyclic_and_monotone(formed_topologies):
    ok = True
    for _, sim in formed_topologies:
        for state in sim.states.values():
            if not state.joined or state.node_id == GATEWAY_ID:
                continue
            seen = {state.node_id}
            current = state
            while current.node_id != GATEWAY_ID:
                parent = sim.states.get(current.default_parent)
                if parent is None or parent.rank >= current.rank or parent.node_id in seen:
                    ok = False
                    break
                seen.add(parent.node_id)
                current = parent
    _verdict("6d", "DAG acyclic with strictly decreasing ranks, 50 topologies", ok)


def test_criterion_6e_cooperative_dominance_enumeration():
    # exhaustive outcome-tree enumeration of the actual hop engines
    class Exhausted(Exception):
        pass

    class Scripted:
        def __init__(self, script):
            self.script, self.i = script, 0

        def transmit(self, src, dst, slot):
            if self.i >= len(self.script):
                raise Exhausted()
            value = self.script[self.i]
            self.i += 1
            return value

    def delivery_probability(run, p):
        total = 0.0
        delivered = 0.0
        stack = [()]
        while stack:
            script = stack.pop()
            layer = Scripted(script)
            try:
                outcome = run(layer)
            except Exhausted:
                stack.append(script + (True,))
                stack.append(script + (False,))
                continue
            prob = 1.0
            for bit in script:
                prob *= p if bit else 1.0 - p
            total += prob
            if outcome.delivered:
                delivered += prob
        assert abs(total - 1.0) < 1e-12
        return delivered

    ok = True
    for tenths in range(1, 10):
        p = tenths / 10.0
        coop = delivery_probability(
            lambda layer: forward_hop(layer, 1, (0,), 2, 0, 3, 1, 1), p
        )
        direct = delivery_probability(
            lambda layer: forward_hop(layer, 1, (0,), None, 0, 3, 1, 1), p
        )
        ok = ok and coop >= direct
        ok = ok and abs(direct - (1.0 - (1.0 - p) ** 4)) < 1e-12
        f = (1.0 - p) * (1.0 - p * p)
        ok = ok and abs(coop - (1.0 - f**4)) < 1e-12
    _verdict("6e", "per-hop cooperative dominance, exhaustive at p = 0.1..0.9", ok)


def test_criterion_6f_packet_conservation(lsr_sweep, density_sweep):
    ok = True
    for table in (lsr_sweep[0], density_sweep):
        for row in table.data_rows:
            if not row["sent"]:
                continue  # failed point: no packets to conserve
            ok = ok and int(row["sent"]) == int(row["delivered"]) + int(row["dropped"])
    _verdict("6f", "sent = delivered + dropped on every run", ok)


GOLDEN_CONFIG = ScenarioConfig(
    region_side=240.0,
    intensity=60.0 / 240.0**2,
    tx_power_w=2.0,
    path_loss_exponent=3.0,
    reference_loss_db=40.0,
    noise_floor_w=1e-13,
    tx_range_m=70.0,
    sinr_threshold_db=40.0,
    reference_distance=41.5,
    n_packets=200,
    seed=1,
)
GOLDEN_SPEC = SweepSpec(
    "lsr",
    (0.5, 0.8),
    default_variants(["rpl", "coop_rpl"], ["best_effort"]),
    seeds=2,
)


def test_criterion_6g_golden_replay(tmp_path):
    fresh = tmp_path / "golden.csv"
    run_sweep(GOLDEN_CONFIG, GOLDEN_SPEC, fresh, workers=1)
    golden = DATA_DIR / "golden_sweep.csv"
    ok = golden.exists() and fresh.read_bytes() == golden.read_bytes()
    _verdict("6g", "bit-identical replay of the pinned sweep against the golden CSV", ok)
