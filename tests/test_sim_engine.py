import copy
import dataclasses
import gc
import hashlib
import heapq
import inspect
import json
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopmesh import forwarding, rpl_core, sim_engine
from coopmesh.cli import default_variants
from coopmesh.coop_relay import RoutingClass, run_selection
from coopmesh.forwarding import NetworkView, Packet, PacketStatus, Protocol
from coopmesh.rpl_core import (
    EtxEstimate,
    TrickleState,
    process_dio,
    update_children_and_connections,
)
from coopmesh.sim_engine import (
    FIELD_BOUNDS,
    EventKind,
    FieldError,
    MetricsReport,
    ScenarioConfig,
    Simulation,
    MetricsTally,
    form_network,
    generate_traffic,
    run_scenario,
)
from coopmesh.topology import GATEWAY_ID, Channel, NodePlacement


def tiny_config(**overrides):
    defaults = dict(
        region_side=60.0,
        intensity=8.0 / 3600.0,
        lsr_value=1.0,
        n_packets=50,
        seed=5,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n_packets=0)
    with pytest.raises(ValueError):
        ScenarioConfig(p_coop=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(lsr_value=1.3)
    with pytest.raises(ValueError):
        ScenarioConfig(lsr_mapping="nope")
    with pytest.raises(ValueError):
        ScenarioConfig(sweep_axis="lsr", sweep_values=())


def test_none_accepted_only_where_a_field_is_optional():
    assert ScenarioConfig(traffic_window_slots=None).window_slots == 2000
    assert ScenarioConfig(lsr_value=None).lsr_value is None
    for name in FIELD_BOUNDS:
        if name in ("traffic_window_slots", "lsr_value"):
            continue
        # rejected at construction, not by a TypeError in the middle of a run
        with pytest.raises(ValueError, match=f"{name} must be"):
            ScenarioConfig(**{name: None}, lsr_value=0.9)


@pytest.mark.parametrize(
    "name, bad",
    [
        ("p_coop", None),
        ("reference_loss_db", None),
        ("sinr_threshold_db", None),
        ("protocol", None),
        ("protocol", "rpl"),
        ("routing_class", "a"),
        ("seed", None),
        ("seed", 1.0),
        ("seed", True),
        ("n_packets", 100.0),
        ("max_retx", False),
        ("tx_power_w", True),
        ("sinr_per_slot", 1),
        ("lsr_mapping", None),
        ("weights", (0.25, 0.25, 0.25, 0.25)),
        ("sweep_values", [0.5]),
        ("sweep_values", (0.5, None)),
        ("sweep_axis", "foo"),
    ],
)
def test_wrong_types_rejected_at_construction(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be"):
        ScenarioConfig(**{name: bad}, lsr_value=0.9)


def test_optional_fields_take_none_and_float_fields_take_ints():
    cfg = ScenarioConfig(
        region_side=300, lsr_value=None, weights=None, traffic_window_slots=None,
        sweep_axis=None, sweep_values=(1, 2.5),
    )
    assert cfg.region_side == 300


def test_every_rejection_is_a_field_error_naming_its_fields():
    # the config parser finds the offending line through these names alone
    for name, bound in FIELD_BOUNDS.items():
        for bad in ("x", bound.lowest - 1):  # wrong type, below the bound
            with pytest.raises(FieldError) as info:
                ScenarioConfig(**{name: bad})
            assert info.value.fields == (name,)
    with pytest.raises(FieldError) as info:
        ScenarioConfig(sweep_values=(0.9, 0.5))
    assert info.value.fields == ("sweep_axis", "sweep_values")
    with pytest.raises(FieldError) as info:
        ScenarioConfig(warmup_slots=9)
    assert info.value.fields == ("warmup_slots", "trickle_imin_ms", "slot_ms")


@pytest.mark.parametrize(
    "changes, fields",
    [
        ({"intensity": 1e-200, "density_ratio": 1e-200}, ("intensity", "density_ratio")),
        ({"intensity": 1e200, "density_ratio": 1e200}, ("intensity", "density_ratio")),
        (
            {"intensity": 1e-200, "sweep_axis": "density", "sweep_values": (1e-200, 1.0)},
            ("intensity", "sweep_values"),
        ),
    ],
    ids=["underflow", "overflow", "sweep-underflow"],
)
def test_effective_intensity_must_be_a_positive_finite_number(changes, fields):
    # place_nodes would raise later, inside the run, with no field named
    with pytest.raises(FieldError, match="effective intensity") as info:
        ScenarioConfig(**changes)
    assert info.value.fields == fields
    # the same values are fine where the product is
    assert ScenarioConfig(intensity=1e-200, density_ratio=1e100).effective_intensity > 0
    ScenarioConfig(intensity=1e-200, sweep_axis="lsr", sweep_values=(1e-200, 1.0))


@pytest.mark.parametrize(
    "changes, fields",
    [
        ({"intensity": 1e300}, ("intensity", "density_ratio", "region_side")),
        (
            {"region_side": 1000.0, "intensity": 1.0, "density_ratio": 1.01},
            ("intensity", "density_ratio", "region_side"),
        ),
        (
            {"region_side": 1000.0, "intensity": 1.0, "sweep_axis": "density",
             "sweep_values": (0.5, 2.0)},
            ("intensity", "sweep_values", "region_side"),
        ),
    ],
    ids=["intensity-1e300", "ratio", "sweep"],
)
def test_expected_meter_count_is_capped(changes, fields):
    # placement would raise numpy's raw ValueError inside the run, or place
    # more meters than a run can hold; these configs are never run
    with pytest.raises(FieldError, match="expected meter count") as info:
        ScenarioConfig(**changes)
    assert info.value.fields == fields
    # a million meters is allowed, on any axis
    ScenarioConfig(region_side=1000.0, intensity=1.0)
    ScenarioConfig(region_side=1000.0, intensity=1.0, sweep_axis="lsr", sweep_values=(0.5,))
    ScenarioConfig(
        region_side=1000.0, intensity=0.5, sweep_axis="density", sweep_values=(0.5, 2.0)
    )


LINK_BUDGET = ("tx_power_w", "noise_floor_w", "reference_loss_db", "path_loss_exponent")


@pytest.mark.parametrize(
    "changes, fields",
    [
        # each raised a math domain error inside the run, on an 80 m region
        ({"tx_power_w": 1e-320}, ("tx_power_w",)),
        ({"path_loss_exponent": 500.0}, ("path_loss_exponent",)),
        # this one calibrated an infinite threshold and silently gave pdr 0
        (
            {"tx_power_w": 1e300, "noise_floor_w": 1e-300, "lsr_value": 0.5},
            ("tx_power_w",),
        ),
        # in-bound fields whose joint budget leaves the SNR window
        ({"tx_power_w": 1e-30, "noise_floor_w": 1e30}, LINK_BUDGET + ("tx_range_m", "region_side")),
        ({"path_loss_exponent": 10.0, "region_side": 1e-9}, LINK_BUDGET + ("region_side",)),
        (
            {"reference_distance": 1e-100, "lsr_value": 0.5},
            LINK_BUDGET + ("reference_distance",),
        ),
    ],
    ids=["power-1e-320", "exponent-500", "power-1e300", "edge", "nearest-pair", "reference"],
)
def test_link_budgets_past_a_float_fail_at_construction(changes, fields):
    base = {"region_side": 80.0, "intensity": 10.0 / 6400.0, "n_packets": 20}
    with pytest.raises(FieldError) as info:
        ScenarioConfig(**{**base, **changes})
    assert info.value.fields == fields


def _powers_of_ten(low, high):
    return st.floats(min_value=low, max_value=high).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    tx_power_w=_powers_of_ten(-32.0, 32.0),
    noise_floor_w=_powers_of_ten(-32.0, 32.0),
    reference_loss_db=st.floats(min_value=-300.0, max_value=300.0),
    path_loss_exponent=st.floats(min_value=2.0, max_value=12.0),
    region_side=_powers_of_ten(-24.0, 24.0),
    tx_range_m=_powers_of_ten(-24.0, 24.0),
    reference_distance=_powers_of_ten(-24.0, 24.0),
    sinr_threshold_db=st.floats(min_value=-300.0, max_value=300.0),
    lsr_value=st.none() | st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    lsr_mapping=st.sampled_from(["reference", "uniform"]),
)
def test_link_budget_rule_keeps_every_in_range_link_finite(**fields):
    # one expected meter, so the meter-count cap rejects no drawn region
    intensity = 1.0 / fields["region_side"] ** 2
    try:
        config = ScenarioConfig(**fields, intensity=intensity)
    except FieldError:
        return
    # the gateway, a meter as close to it as a coordinate can be, two
    # opposite corners, and a meter at the edge of range from one corner
    side = config.region_side
    center = side / 2.0
    edge = min(config.tx_range_m, side * math.sqrt(2.0)) / math.sqrt(2.0)
    points = [
        (center, center), (math.nextafter(center, math.inf), center),
        (0.0, 0.0), (side, side), (edge, edge),
    ]
    placements = [NodePlacement(i, x, y) for i, (x, y) in enumerate(dict.fromkeys(points))]
    channel = Channel(placements, config.channel_params(), config.seed)
    everyone = frozenset(channel.node_ids)
    for tx in channel.node_ids:
        for rx in channel.neighbors(tx):
            assert 0.0 <= channel.success_probability(tx, rx) <= 1.0
            for with_fading in (False, True):
                # every other node transmits at once
                sinr = channel.compute_sinr(rx, tx, everyone - {tx}, 7, with_fading)
                assert math.isfinite(sinr)


def test_run_parameters_have_no_default_outside_scenario_config():
    # ScenarioConfig alone holds a run parameter's default: a second copy
    # can drift from it, as NetworkView's seed = 0 did from seed = 1
    def defaulted(fields):
        return [
            f.name for f in fields
            if f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING
        ]

    assert defaulted(dataclasses.fields(NetworkView)) == []
    timer = ("interval_min_ms", "max_doublings", "redundancy_k", "current_interval_ms")
    assert not set(defaulted(dataclasses.fields(TrickleState))) & set(timer)
    for fn, names in (
        (process_dio, ("hysteresis",)),
        (EtxEstimate.observe, ("etx_max",)),
        (run_selection, ("weights", "interferers", "slot", "with_fading")),
        (Channel.compute_sinr, ("concurrent_transmitters", "slot", "with_fading")),
    ):
        parameters = inspect.signature(fn).parameters
        for name in names:
            assert parameters[name].default is inspect.Parameter.empty, name
    for constant in (
        "TRICKLE_IMIN_MS", "TRICKLE_DOUBLINGS", "TRICKLE_REDUNDANCY_K", "HYSTERESIS_DEFAULT",
    ):
        assert not hasattr(rpl_core, constant)


def test_two_node_network_perfect_links():
    # gateway plus one meter: everything delivers in one hop, one slot
    cfg = tiny_config(region_side=40.0, intensity=1.0 / 1600.0, n_packets=20)
    for protocol in Protocol:
        report = run_scenario(
            ScenarioConfig(
                **{
                    **cfg.__dict__,
                    "protocol": protocol,
                }
            )
        )
        if report.joined_nodes == 0:
            continue  # placement draw produced no meter near enough
        assert report.pdr == 1.0
        assert report.mean_retransmissions == 0.0
        assert report.mean_delay_slots == 1.0
        assert report.delivered + report.dropped == report.packets_sent


def test_run_scenario_bit_identical_replay():
    cfg = tiny_config(lsr_value=0.6, protocol=Protocol.COOP_RPL)
    first = run_scenario(cfg)
    second = run_scenario(cfg)
    assert first == second


def test_trace_replay_is_identical():
    # sparse enough that a meter out of everyone's range keeps sending DIS
    cfg = tiny_config(
        region_side=150.0, intensity=10.0 / 150.0**2, lsr_value=0.6,
        protocol=Protocol.COOP_RPL, seed=2,
    )
    sink_a, sink_b = [], []
    report_a = run_scenario(cfg, emit=sink_a.append)
    report_b = run_scenario(cfg, emit=sink_b.append)
    assert {"DIO", "DIS", "DAO", "relay"} <= {r.get("type") for r in sink_a}
    assert sum(1 for r in sink_a if "packet_id" in r) == cfg.n_packets
    assert sink_a == sink_b
    assert report_a == report_b


# SHA-256 of the five traces of test_relay_scoring_trace_is_pinned; relay
# selection must reproduce every choice and every rate bit for bit
RELAY_TRACE_DIGEST = "fb70feed9213998a08ed2f7733bfac96a6c901b9802b01927408819068f64d46"


def test_relay_scoring_trace_is_pinned(monkeypatch):
    # a busy 20-node field: selections run with 0, 1 and 2+ transmitters
    # registered in their slot, so every SINR case of the scorer is exercised
    seen_sizes = set()
    select = sim_engine.run_selection

    def recording(*args, **kwargs):
        seen_sizes.add(min(len(kwargs["interferers"]), 2))
        return select(*args, **kwargs)

    monkeypatch.setattr(sim_engine, "run_selection", recording)
    digest = hashlib.sha256()
    runs = [(c, False) for c in RoutingClass] + [(RoutingClass.BEST_EFFORT, True)]
    for routing_class, per_slot in runs:
        cfg = tiny_config(
            region_side=100.0, intensity=20.0 / 100.0**2, tx_range_m=40.0,
            lsr_value=0.5, n_packets=400, traffic_window_slots=80, seed=1,
            protocol=Protocol.COOP_RPL, routing_class=routing_class,
            sinr_per_slot=per_slot,
        )
        sink = []
        run_scenario(cfg, emit=sink.append)
        assert any(r.get("type") == "relay" and r["candidates"] for r in sink)
        digest.update(json.dumps(sink, sort_keys=True).encode())
    assert seen_sizes == {0, 1, 2}
    assert digest.hexdigest() == RELAY_TRACE_DIGEST


# SHA-256 of the whole trace of test_packet_trace_is_pinned per protocol.
# Each packet record carries its transmissions and delay, so a changed link
# draw shows here before it reaches the aggregated golden CSV. The runs use
# p_coop = 0.5, which only coop_rpl reads: each of its hops with a relay
# spends a keyed cooperation-decision draw.
PACKET_TRACE_DIGESTS = {
    Protocol.RPL: "ba4aee76d64a9723b23d6f1ec4be8a6030de62c84b0a6fff79ee1d71e99994f5",
    Protocol.OPP_RPL: "98f102ff8bbe3605ab70bbe935af213065708c2d9263f6c4e297f41657e18b70",
    Protocol.COOP_RPL: "ff5e6f89528ab45668a9ec44878f9ab491a64e9c0c8365abc55fc0cc3f19e75a",
}


def packet_trace_config(protocol, p_coop=0.5):
    return tiny_config(
        region_side=100.0, intensity=20.0 / 100.0**2, tx_range_m=40.0,
        lsr_value=0.5, lsr_mapping="uniform", n_packets=400,
        traffic_window_slots=80, seed=1, protocol=protocol, p_coop=p_coop,
    )


@pytest.mark.parametrize("protocol", list(PACKET_TRACE_DIGESTS))
def test_packet_trace_is_pinned(protocol):
    cfg = packet_trace_config(protocol)
    sink = []
    run_scenario(cfg, emit=sink.append)
    packets = [r for r in sink if "packet_id" in r]
    assert len(packets) == cfg.n_packets
    # lossy enough that retries and drops are part of what is pinned
    assert any(r["status"] == "dropped" for r in packets)
    assert any(r["transmissions"] > r["hops"] for r in packets)
    digest = hashlib.sha256(json.dumps(sink, sort_keys=True).encode())
    assert digest.hexdigest() == PACKET_TRACE_DIGESTS[protocol]


def test_full_cooperation_spends_no_decision_draw(monkeypatch):
    # every draw lies in [0, 1), so at p_coop = 1 the decision is settled
    # without one; just below 1 the draw is spent and decides the same
    draws = []
    relay_hops = []
    uniform = forwarding.uniform
    hop = forwarding.forward_hop

    def counting_uniform(*args):
        draws.append(args)
        return uniform(*args)

    def counting_hop(link_layer, holder, receivers, relay, *args):
        relay_hops.append(relay is not None)
        return hop(link_layer, holder, receivers, relay, *args)

    monkeypatch.setattr(forwarding, "uniform", counting_uniform)
    monkeypatch.setattr(forwarding, "forward_hop", counting_hop)
    traces = []
    for p_coop in (1.0, math.nextafter(1.0, 0.0)):
        draws.clear()
        relay_hops.clear()
        sink = []
        run_scenario(packet_trace_config(Protocol.COOP_RPL, p_coop), emit=sink.append)
        traces.append(sink)
        if p_coop == 1.0:
            assert draws == []
        else:
            assert len(draws) == sum(relay_hops) > 0
    assert traces[0] == traces[1]


def test_counts_are_fresh_at_every_relay_selection(monkeypatch):
    # counts are rebuilt only after a default parent moves; at each
    # selection they must match a rebuild from scratch
    checked = []
    select = sim_engine.run_selection

    def checking(sender, states, *args, **kwargs):
        fresh = copy.deepcopy(states)
        update_children_and_connections(fresh)
        for node, st in states.items():
            assert st.children == fresh[node].children
            assert st.active_connections == fresh[node].active_connections
        checked.append(sender.node_id)
        return select(sender, states, *args, **kwargs)

    rebuilds = []
    rebuild = sim_engine.update_children_and_connections

    def counting(states):
        rebuilds.append(len(checked))
        rebuild(states)

    monkeypatch.setattr(sim_engine, "run_selection", checking)
    monkeypatch.setattr(sim_engine, "update_children_and_connections", counting)
    cfg = tiny_config(
        region_side=100.0, intensity=20.0 / 100.0**2, tx_range_m=40.0,
        lsr_value=0.5, lsr_mapping="uniform", n_packets=200,
        traffic_window_slots=400, seed=3, protocol=Protocol.COOP_RPL,
    )
    run_scenario(cfg)
    assert len(checked) > 50
    # some parent moved during traffic, so the counts had to be rebuilt
    assert any(0 < at < len(checked) for at in rebuilds)


def test_events_pop_by_slot_then_kind_then_push_order():
    sim = Simulation(tiny_config())
    # dict payloads are not orderable: comparing one would raise TypeError
    pushes = [
        (7, EventKind.HOP_ATTEMPT, {"n": 0}),
        (3, EventKind.DAO_TX, {"n": 1}),
        (7, EventKind.TRICKLE_FIRE, {"n": 2}),
        (7, EventKind.HOP_ATTEMPT, {"n": 3}),
        (3, EventKind.TRICKLE_FIRE, {"n": 4}),
        (7, EventKind.PACKET_GEN, {"n": 5}),
        (7, EventKind.DIO_TX, {"n": 6}),
        (1, EventKind.HOP_ATTEMPT, {"n": 7}),
        (7, EventKind.HOP_ATTEMPT, {"n": 8}),
        (7, EventKind.DIS_TX, {"n": 9}),
        (7, EventKind.TRICKLE_FIRE, {"n": 10}),
        (3, EventKind.DAO_TX, {"n": 11}),
    ]
    for slot, kind, payload in pushes:
        sim.push(slot, kind, payload)
    popped = []
    while sim.queue:
        slot, _, _, kind, payload = heapq.heappop(sim.queue)
        popped.append((slot, kind, payload["n"]))
    assert popped == [
        (1, EventKind.HOP_ATTEMPT, 7),
        (3, EventKind.TRICKLE_FIRE, 4),
        (3, EventKind.DAO_TX, 1),
        (3, EventKind.DAO_TX, 11),
        (7, EventKind.TRICKLE_FIRE, 2),
        (7, EventKind.TRICKLE_FIRE, 10),
        (7, EventKind.DIO_TX, 6),
        (7, EventKind.DIS_TX, 9),
        (7, EventKind.PACKET_GEN, 5),
        (7, EventKind.HOP_ATTEMPT, 0),
        (7, EventKind.HOP_ATTEMPT, 3),
        (7, EventKind.HOP_ATTEMPT, 8),
    ]


@pytest.mark.parametrize("protocol", list(Protocol))
def test_traffic_queues_one_arrival_at_a_time(protocol):
    # arrivals share the one heap but enter it one by one, each handled
    # arrival queuing the next; a hop event carries its packet
    sim = form_network(packet_trace_config(protocol))
    push = sim.push
    arrivals = []

    def checking_push(slot, kind, payload=None):
        push(slot, kind, payload)
        if kind is EventKind.PACKET_GEN:
            arrivals.append(payload)
        elif kind is EventKind.HOP_ATTEMPT:
            assert isinstance(payload, Packet)
        assert sum(entry[3] is EventKind.PACKET_GEN for entry in sim.queue) <= 1

    sim.push = checking_push
    report = sim.run_traffic()
    assert report.packets_sent == len(arrivals) == sim.config.n_packets
    assert sorted(arrivals) == list(range(sim.config.n_packets))


@pytest.mark.parametrize("protocol", list(Protocol))
def test_finished_run_is_freed_without_the_collector(protocol):
    # a finished Simulation must hold no reference cycle (a table of its own
    # bound methods would make one), or every run of a sweep stays in
    # memory until the cyclic collector happens to run
    records = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sim = form_network(packet_trace_config(protocol), emit=records.append)
        sim.run_traffic()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
    assert records


def test_run_memory_does_not_grow_with_packet_count():
    # a run holds its in-flight packets, the arrival arrays (a few int64
    # per packet) and the network's tables; a resolved packet is folded
    # into the report's tallies and freed, and one arrival is queued at a time
    def traced_peak(n_packets):
        cfg = ScenarioConfig(
            region_side=120.0, intensity=20.0 / 120.0**2, n_packets=n_packets,
            lsr_value=0.9, seed=5,
        )
        gc.collect()
        tracemalloc.start()
        try:
            run_scenario(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(1_000), traced_peak(10_000)
    assert (large - small) / 9_000 <= 100, (small, large)


def test_formation_is_identical_under_every_variant():
    # a sweep re-forms the network per variant; that is only sound because
    # formation never reads the protocol or routing class
    base = ScenarioConfig(seed=3, lsr_value=0.7)
    formed = []
    for protocol, routing_class in default_variants():
        trace: list[dict] = []
        sim = form_network(
            replace(base, protocol=protocol, routing_class=routing_class), trace.append
        )
        formed.append((
            {n: st.default_parent for n, st in sim.states.items()},
            {n: st.rank for n, st in sim.states.items()},
            sim.etx_table,
            sim.formation_slots,
            trace,
        ))
    assert len(formed) == 6
    assert formed[0][4], "formation must leave a trace"
    assert all(f == formed[0] for f in formed[1:])


def test_formation_builds_acyclic_monotone_dag():
    cfg = ScenarioConfig(seed=11, lsr_value=0.8)
    sim = form_network(cfg)
    gateway = sim.states[GATEWAY_ID]
    assert gateway.rank == 0.0
    joined = [s for s in sim.states.values() if s.joined and s.node_id != GATEWAY_ID]
    assert joined, "default scenario must form a DAG"
    for state in joined:
        # walk to the gateway: strictly decreasing rank, no revisits
        seen = {state.node_id}
        current = state
        while current.node_id != GATEWAY_ID:
            parent = sim.states[current.default_parent]
            assert parent.rank < current.rank
            assert parent.node_id not in seen
            seen.add(parent.node_id)
            current = parent
        assert len(seen) <= len(sim.states)


def test_formation_children_partition_joined_nodes():
    sim = form_network(ScenarioConfig(seed=13, lsr_value=0.8))
    total_children = sum(len(s.children) for s in sim.states.values())
    joined_meters = sum(
        1 for s in sim.states.values() if s.joined and s.node_id != GATEWAY_ID
    )
    assert total_children == joined_meters
    for state in sim.states.values():
        for child in state.children:
            assert sim.states[child].default_parent == state.node_id


def test_dao_routes_recorded_along_default_paths():
    trace: list[dict] = []
    sim = form_network(ScenarioConfig(seed=17, lsr_value=0.9), trace.append)
    last_dao = {}
    for record in trace:
        if record["type"] == "DAO":
            assert record["target"] == record["sender"]
            last_dao[record["sender"]] = record["via_parent"]
    meters = sim.joined_meters()
    assert meters
    # every joined meter advertised, and its last DAO names its final parent
    for meter in meters:
        assert last_dao[meter] == sim.states[meter].default_parent


def test_generate_traffic_count_and_window():
    cfg = tiny_config(n_packets=1000)
    slots, sources = generate_traffic(cfg, sources=[3, 4, 5], start_slot=100)
    assert slots.shape == sources.shape == (1000,)
    assert slots.dtype == sources.dtype == np.int64
    assert ((100 <= slots) & (slots < 100 + cfg.window_slots)).all()
    assert set(sources.tolist()) <= {3, 4, 5}


def test_generate_traffic_single_meter_gets_everything():
    cfg = tiny_config(n_packets=64)
    _, sources = generate_traffic(cfg, sources=[9], start_slot=0)
    assert (sources == 9).all()


def test_generate_traffic_uniform_over_sources():
    cfg = ScenarioConfig(n_packets=100_000, seed=23)
    sources = list(range(1, 21))
    _, picked = generate_traffic(cfg, sources, start_slot=0)
    counts = {s: 0 for s in sources}
    for source in picked.tolist():
        counts[source] += 1
    for s in sources:
        assert counts[s] / 100_000 == pytest.approx(1 / 20, rel=0.05)


def test_generate_traffic_requires_sources():
    with pytest.raises(ValueError):
        generate_traffic(tiny_config(), sources=[], start_slot=0)


def _packet(status, retx=0, delay=None):
    from coopmesh.forwarding import Packet

    p = Packet(packet_id=0, source=1, created_slot=0, current_holder=1)
    p.status = status
    p.retransmissions = retx
    if delay is not None:
        p.delivered_slot = delay
    return p


def tally_report(packets, slot_ms):
    # the report's definitions, reached the way run_traffic reaches them
    tally = MetricsTally()
    for packet in packets:
        tally.fold(packet)
    return tally.report(slot_ms)


def test_collect_metrics_definitions():
    packets = [_packet(PacketStatus.DELIVERED, retx=0, delay=2) for _ in range(8)]
    packets += [_packet(PacketStatus.DROPPED, retx=3) for _ in range(2)]
    report = tally_report(packets, slot_ms=10.0)
    assert report.pdr == 0.8
    assert report.packets_sent == 10
    assert report.mean_retransmissions == pytest.approx(6 / 10)
    assert report.mean_delay_slots == 2.0
    assert report.mean_delay_ms == 20.0


def test_collect_metrics_delay_example():
    packets = [
        _packet(PacketStatus.DELIVERED, delay=2),
        _packet(PacketStatus.DELIVERED, delay=4),
        _packet(PacketStatus.DROPPED),
    ]
    report = tally_report(packets, slot_ms=10.0)
    assert report.mean_delay_slots == 3.0
    assert report.pdr == pytest.approx(2 / 3)


def test_collect_metrics_zero_delivered_has_no_delay():
    packets = [_packet(PacketStatus.DROPPED, retx=3) for _ in range(4)]
    report = tally_report(packets, slot_ms=10.0)
    assert report.mean_delay_slots is None
    assert report.mean_delay_ms is None
    assert report.pdr == 0.0


def test_collect_metrics_rejects_unresolved():
    with pytest.raises(ValueError):
        tally_report([_packet(PacketStatus.IN_FLIGHT)], slot_ms=10.0)


def test_metrics_report_conservation_enforced():
    with pytest.raises(ValueError):
        MetricsReport(
            packets_sent=5, delivered=3, dropped=1, pdr=0.6,
            mean_retransmissions=0.0, mean_delay_slots=None, mean_delay_ms=None,
            disconnected=False, joined_nodes=1, total_nodes=1, formation_slots=0,
        )


def test_trace_sink_collects_all_record_kinds():
    cfg = tiny_config(lsr_value=0.6, protocol=Protocol.COOP_RPL, n_packets=30)
    sink = []
    run_scenario(cfg, emit=sink.append)
    types = {record.get("type") for record in sink}
    assert "DIO" in types
    assert "relay" in types
    packet_records = [r for r in sink if "packet_id" in r]
    assert len(packet_records) == 30
    for record in packet_records:
        assert record["status"] in ("delivered", "dropped")


def test_swept_uniform_mapping_runs():
    cfg = tiny_config(lsr_value=0.7, lsr_mapping="uniform")
    report = run_scenario(cfg)
    assert report.packets_sent == 50
    assert report.delivered + report.dropped == 50


def test_packet_conservation_across_protocols_and_lsr():
    for lsr in (0.5, 0.9):
        for protocol in Protocol:
            cfg = tiny_config(lsr_value=lsr, protocol=protocol, n_packets=80)
            report = run_scenario(cfg)
            assert report.delivered + report.dropped == report.packets_sent == 80


def test_uniform_lsr_pdr_non_decreasing():
    # shared per-link probability: higher link success can only help delivery
    def mean_pdr(lsr):
        reports = [
            run_scenario(
                ScenarioConfig(
                    region_side=120.0, intensity=20.0 / 120.0**2, n_packets=120,
                    lsr_value=lsr, lsr_mapping="uniform", seed=seed,
                )
            )
            for seed in (1, 2, 3)
        ]
        return sum(r.pdr for r in reports) / len(reports)

    series = [mean_pdr(lsr) for lsr in (0.5, 0.7, 0.9)]
    assert series[0] <= series[1] <= series[2]
