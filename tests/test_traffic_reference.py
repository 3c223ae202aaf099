"""A plain event loop is the reference that ``Simulation.run_traffic`` is
held to (differential testing, McKeeman 1998).

The engine's loop takes shortcuts for speed: it queues arrivals one at a
time and runs a first hop when its arrival is handled, prunes the
interference registry slot by slot, reads ``array('q')`` copies of the
arrivals, folds each packet as it resolves and, inside a sweep point,
shares the placement and channel between variants. The reference takes
none of them. It shares with the engine only the control dispatch, the
route refresh, the hop engine, the link layer and the traffic draw, so a
shortcut that moves any output fails here.
"""

import heapq

import pytest
from hypothesis import given, settings

from coopmesh import cli
from coopmesh.cli import default_variants
from coopmesh.config import ScenarioConfig
from coopmesh.forwarding import (
    LinkLayer, NetworkView, Packet, Protocol, advance_one_hop,
)
from coopmesh.sim_engine import (
    EventKind, MetricsReport, form_network, generate_traffic, run_scenario,
)
from coopmesh.topology import GATEWAY_ID, DisconnectedRootError
from test_cli import runnable_configs


def reference_traffic(sim) -> MetricsReport:
    """Play the traffic of sim, formed by form_network, the plain way:
    every arrival is queued up front and queues its packet's first hop as a
    HOP_ATTEMPT, the registry is never pruned, and the packets are folded in
    id order once all have resolved."""
    cfg = sim.config
    sources = [n for n, st in sorted(sim.states.items()) if n != GATEWAY_ID and st.joined]
    sim.traffic_started = True
    for node in sources:
        sim._refresh_route(node, sim.now)
    slots, senders = (a.tolist() for a in generate_traffic(cfg, sources, sim.formation_slots))
    packets = []
    for packet_id, (slot, source) in enumerate(zip(slots, senders)):
        link = LinkLayer(sim.channel, cfg.seed, packet_id, sim.registry)
        packets.append(Packet(packet_id, source, slot, source, link=link))
        sim.push(slot, EventKind.PACKET_GEN, packets[-1])
    net = NetworkView(
        states=sim.states, gateway=GATEWAY_ID, observe_link=sim.observe_link,
        max_retx=cfg.max_retx, relay_retx=cfg.relay_retx, retx_wait=cfg.retx_wait_slots,
        p_coop=cfg.p_coop, relay_for=sim.relay_for, fsets=sim.fsets, seed=cfg.seed,
    )
    unresolved = len(packets)
    while unresolved:
        slot, kind, _, payload = heapq.heappop(sim.queue)
        if kind == EventKind.PACKET_GEN:
            sim.push(slot, EventKind.HOP_ATTEMPT, payload)
        elif kind != EventKind.HOP_ATTEMPT:
            sim._handle_control(slot, kind, payload)
        else:
            holder = payload.current_holder
            outcome = advance_one_hop(payload, net, payload.link, slot)
            if outcome is not None and sim.emit is not None and cfg.protocol is Protocol.COOP_RPL:
                rates = sorted(sim.relay_rates.get(holder, {}).items())
                sim.emit({
                    "type": "relay", "slot": slot, "sender": holder,
                    "class": cfg.routing_class.value,
                    "candidates": [{"id": r, "rate": rate} for r, rate in rates],
                    "selected": sim.relay_for.get(holder), "used": outcome.relay_used,
                })
            if payload.delivered_slot is None and payload.drop_reason is None:
                sim.push(slot + outcome.slots_consumed, EventKind.HOP_ATTEMPT, payload)
            else:
                unresolved -= 1
    delays = [p.delay_slots for p in packets if p.delivered_slot is not None]
    mean_delay = sum(delays) / len(delays) if delays else None
    return MetricsReport(
        packets_sent=len(packets),
        delivered=len(delays),
        dropped=sum(p.drop_reason is not None for p in packets),
        pdr=len(delays) / len(packets),
        mean_retransmissions=sum(p.retransmissions for p in packets) / len(packets),
        mean_delay_slots=mean_delay,
        mean_delay_ms=None if mean_delay is None else mean_delay * cfg.slot_ms,
        disconnected=len(sources) < len(sim.states) - 1,
        joined_nodes=len(sources),
        total_nodes=len(sim.states) - 1,
        formation_slots=sim.formation_slots,
    )


def control_records(records):
    # a packet record is the one kind without a "type"; the engine emits it
    # when its packet resolves, and the reference emits none
    return [r for r in records if "type" in r]


def assert_variants_equal_the_reference(cfg):
    """Every variant of cfg's sweep point: run_scenario's report, traced or
    not, and the control records of a traced run equal the reference's, and
    cli._sweep_point's rows carry the reference's metrics."""
    variants = default_variants()
    point = cli._sweep_point((cfg, "density", cfg.density_ratio, cfg.seed, variants))
    for (protocol, routing_class), row in zip(variants, point):
        run = cfg.swept(
            "density", cfg.density_ratio, protocol=protocol, routing_class=routing_class
        )
        engine_trace, reference_trace = [], []
        try:
            reference = reference_traffic(form_network(run, reference_trace.append))
        except DisconnectedRootError:
            assert row["error"] is not None
            continue
        assert run_scenario(run) == reference
        assert run_scenario(run, engine_trace.append) == reference
        assert control_records(engine_trace) == control_records(reference_trace)
        # the sweep point ran its variants on one shared placement and channel
        assert [row[column] for column in cli.METRIC_COLUMNS] == [
            reference.pdr, reference.mean_retransmissions, reference.mean_delay_slots,
            reference.mean_delay_ms, reference.packets_sent, reference.delivered,
            reference.dropped,
        ]


@settings(max_examples=15, deadline=None)
@given(runnable_configs())
def test_run_traffic_equals_the_plain_loop_on_generated_configs(cfg):
    assert_variants_equal_the_reference(cfg)


# default-size networks, where relays forward and DIOs meet traffic in the
# same slot often enough that a fault in the loop's slot bookkeeping shows
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("lsr_value", [None, 0.5, 0.8])
def test_run_traffic_equals_the_plain_loop_on_default_networks(lsr_value, seed):
    assert_variants_equal_the_reference(
        ScenarioConfig(n_packets=400, lsr_value=lsr_value, seed=seed)
    )
