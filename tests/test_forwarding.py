import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopmesh import forwarding
from coopmesh.forwarding import (
    DOMAIN_TRANSMIT,
    HopOutcome,
    LinkLayer,
    NetworkView,
    Packet,
    Protocol,
    advance_one_hop,
    build_forwarding_set,
    forward_hop,
)
from coopmesh.rng import uniform
from coopmesh.rpl_core import EtxEstimate, NodeState, ParentEntry, TrickleState
from coopmesh.sim_engine import ScenarioConfig
from coopmesh.topology import Channel, ChannelParams, NodePlacement


def lsr_channel(positions, lsr, ids=None):
    params = ChannelParams(
        tx_power_w=2.0, path_loss_exponent=3.0, reference_loss_db=40.0,
        noise_floor_w=1e-13, tx_range_m=50.0, sinr_threshold_db=35.0, lsr_value=lsr,
    )
    ids = range(len(positions)) if ids is None else ids
    placements = [NodePlacement(i, x, y) for i, (x, y) in zip(ids, positions)]
    return Channel(placements, params)


# --- scripted enumeration of a hop engine's full outcome tree ---


class ScriptExhausted(Exception):
    pass


class ScriptedLinkLayer:
    def __init__(self, script):
        self.script = script
        self.links = []
        self.i = 0

    def transmit(self, src, dst, slot):
        if self.i >= len(self.script):
            raise ScriptExhausted()
        value = self.script[self.i]
        self.links.append((src, dst))
        self.i += 1
        return value


def exact_hop_stats(run, link_p):
    """Exhaustively enumerate an engine's Bernoulli tree.

    Returns (delivery probability, expected retransmissions); probabilities
    are exact sums over every draw path the engine can take.
    """
    delivered = 0.0
    retx = 0.0
    total = 0.0
    stack = [()]
    while stack:
        script = stack.pop()
        layer = ScriptedLinkLayer(script)
        try:
            outcome = run(layer)
        except ScriptExhausted:
            stack.append(script + (True,))
            stack.append(script + (False,))
            continue
        assert layer.i == len(script)
        prob = 1.0
        for taken, (src, dst) in zip(script, layer.links):
            p = link_p(src, dst)
            prob *= p if taken else (1.0 - p)
        total += prob
        if outcome.delivered:
            delivered += prob
        retx += prob * (outcome.attempts - 1 + outcome.relay_attempts)
    assert total == pytest.approx(1.0)
    return delivered, retx


def test_transmit_certain_and_impossible_links():
    sure = lsr_channel([(0.0, 0.0), (10.0, 0.0)], lsr=1.0)
    dead = lsr_channel([(0.0, 0.0), (10.0, 0.0)], lsr=0.0)
    for n in range(50):
        assert LinkLayer(sure, seed=3, packet_id=n).transmit(1, 0, slot=0) is True
        assert LinkLayer(dead, seed=3, packet_id=n).transmit(1, 0, slot=0) is False


def test_transmit_empirical_frequency():
    ch = lsr_channel([(0.0, 0.0), (10.0, 0.0)], lsr=0.6)
    hits = sum(
        LinkLayer(ch, seed=9, packet_id=n).transmit(1, 0, slot=0)
        for n in range(10_000)
    )
    assert hits / 10_000 == pytest.approx(0.6, abs=0.02)


def test_link_layer_per_link_delivery_matches_lsr():
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0)], lsr=0.7)
    hits = 0
    for packet_id in range(10_000):
        hits += LinkLayer(ch, seed=4, packet_id=packet_id).transmit(0, 1, slot=0)
    assert hits / 10_000 == pytest.approx(0.7, abs=0.02)


def test_link_layer_draws_are_deterministic_and_attempt_keyed():
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0)], lsr=0.5)
    a = LinkLayer(ch, seed=11, packet_id=42)
    b = LinkLayer(ch, seed=11, packet_id=42)
    seq_a = [a.transmit(0, 1, slot) for slot in range(20)]
    seq_b = [b.transmit(0, 1, slot + 100) for slot in range(20)]
    assert seq_a == seq_b  # keyed by attempt index, not slot


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(-(2**63), 2**64),
    packet_id=st.integers(0, 2**64),
    third=st.one_of(st.just(2), st.integers(2**63, 2**70)),
    links=st.lists(st.sampled_from([(0, 1), (1, 0), (1, 2), (2, 0)]), max_size=30),
)
def test_transmit_is_the_keyed_draw_per_attempt(seed, packet_id, third, links):
    # a seed, packet id or node id past int64 leaves the key unpacked, and
    # the draw falls back to uniform
    ids = (0, 1, third)
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0), (30.0, 0.0)], lsr=0.5, ids=ids)
    layer = LinkLayer(ch, seed=seed, packet_id=packet_id)
    used: dict[tuple[int, int], int] = {}
    links = [(ids[a], ids[b]) for a, b in links]
    for slot, (src, dst) in enumerate(links):
        idx = used.get((src, dst), 0)
        used[(src, dst)] = idx + 1
        expected = uniform(
            seed, DOMAIN_TRANSMIT, packet_id, src, dst, idx
        ) < ch.success_probability(src, dst)
        assert layer.transmit(src, dst, slot) is expected


def test_hop_path_state_is_slotted():
    # slots keep the hop path's attribute access fast, and a mistyped field
    # raises instead of adding an attribute
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0)], lsr=0.5)
    instances = (
        Packet(0, source=1, created_slot=0, current_holder=1),
        network_view({0: NodeState(0, rank=0.0)}),
        LinkLayer(ch, seed=1, packet_id=0),
        NodeState(1),
        EtxEstimate(1.0),
        TrickleState(),
    )
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            obj.no_such_field = 1


def assert_full_outcome(outcome, delivered_by_relay):
    # forward_hop builds its outcome from a plain tuple of all seven fields
    assert type(outcome) is HopOutcome
    assert len(outcome) == len(HopOutcome._fields) == 7
    assert outcome.delivered_by_relay is delivered_by_relay


def test_forward_hop_rpl_perfect_link():
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0)], lsr=1.0)
    outcome = forward_hop(
        LinkLayer(ch, 1, 0), holder=1, receivers=(0,), relay=None, slot=0,
        max_retx=3, relay_retx=1, retx_wait=1,
    )
    assert_full_outcome(outcome, delivered_by_relay=False)
    assert outcome.attempts == 1
    assert outcome.delivered is True
    assert outcome.slots_consumed == 1
    assert outcome.receiver == 0


def test_forward_hop_rpl_dead_link_exhausts_budget():
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0)], lsr=0.0)
    outcome = forward_hop(
        LinkLayer(ch, 1, 0), holder=1, receivers=(0,), relay=None, slot=0,
        max_retx=3, relay_retx=1, retx_wait=1,
    )
    assert_full_outcome(outcome, delivered_by_relay=False)
    assert outcome.attempts == 4
    assert outcome.delivered is False
    assert outcome.receiver is None


def test_forward_hop_rpl_delivery_probability_exact():
    # analytic Bernoulli oracle: 1 - 0.5^4 = 0.9375
    run = lambda layer: forward_hop(layer, 1, (0,), None, 0, 3, 1, 1)
    delivered, _ = exact_hop_stats(run, lambda s, d: 0.5)
    assert delivered == pytest.approx(1.0 - 0.5**4)


def test_forward_hop_coop_unused_on_first_try_success():
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0), (10.0, 5.0)], lsr=1.0)
    rpl = forward_hop(LinkLayer(ch, 1, 7), 1, (0,), None, 0, 3, 1, 1)
    coop = forward_hop(
        LinkLayer(ch, 1, 7), 1, (0,), relay=2, slot=0, max_retx=3, relay_retx=1,
        retx_wait=1,
    )
    assert coop == rpl
    assert coop.relay_used is False
    assert coop.relay_attempts == 0
    assert coop.delivered is True


def test_forward_hop_coop_pure_relay_path():
    # parent link dead, both cooperative legs perfect
    probs = {(1, 0): 0.0, (1, 2): 1.0, (2, 0): 1.0}
    run = lambda layer: forward_hop(layer, 1, (0,), 2, 0, max_retx=3, relay_retx=1, retx_wait=1)
    layer = ScriptedLinkLayer([False, True, True])
    outcome = run(layer)
    assert_full_outcome(outcome, delivered_by_relay=True)
    assert outcome.receiver == 0
    assert outcome.delivered is True
    assert outcome.attempts == 1
    assert outcome.relay_attempts == 1
    assert outcome.relay_used is True
    assert outcome.slots_consumed == 2
    delivered, _ = exact_hop_stats(run, lambda s, d: probs[(s, d)])
    assert delivered == pytest.approx(1.0)


def _observing_view(**view):
    """A one-hop network, 1 -> 0 (gateway), and the list of link
    observations the hop reports."""
    observed = []
    states = {0: NodeState(0, rank=0.0), 1: _joined(1, 1.0, 0)}
    net = network_view(
        states, observe_link=lambda *observation: observed.append(observation), **view
    )
    return net, observed


def _single_hop(ch, packet_id, **view):
    net, observed = _observing_view(seed=3, **view)
    packet = Packet(packet_id, source=1, created_slot=0, current_holder=1)
    outcome = advance_one_hop(packet, net, LinkLayer(ch, 3, packet_id), 0)
    return outcome, packet, observed


def test_forward_hop_coop_without_cooperation_matches_rpl():
    # same keyed draws: a coop_rpl hop without a relay, or with one it never
    # cooperates with, is an rpl hop in outcome, packet state and observations
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0), (10.0, 5.0)], lsr=0.5)
    rpl_outcomes = []
    for packet_id in range(200):
        rpl = _single_hop(ch, packet_id)
        rpl_outcomes.append(rpl[0])
        # coop_rpl's table when selection found no relay
        assert _single_hop(ch, packet_id, relay_for={1: None}) == rpl
        never = _single_hop(ch, packet_id, relay_for={1: 2}, p_coop=0.0)
        assert never == rpl
    assert any(not o.delivered for o in rpl_outcomes)
    assert any(o.delivered and o.attempts > 1 for o in rpl_outcomes)


def test_cooperation_decision_frequency_matches_p(monkeypatch):
    # at p_coop = 0.5 about half of the hops whose sender has a relay are
    # handed it; the decision draw is keyed by packet, so each hop is fresh
    handed = []
    hop = forwarding.forward_hop

    def recording_hop(link_layer, holder, receivers, relay, *args):
        handed.append(relay)
        return hop(link_layer, holder, receivers, relay, *args)

    monkeypatch.setattr(forwarding, "forward_hop", recording_hop)
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0), (10.0, 5.0)], lsr=1.0)
    for packet_id in range(10_000):
        _single_hop(ch, packet_id, relay_for={1: 2}, p_coop=0.5)
    assert set(handed) == {None, 2}
    assert handed.count(2) / 10_000 == pytest.approx(0.5, abs=0.02)


def test_cooperative_dominance_exhaustive_over_p_grid():
    # per-hop delivery of coop >= direct-only at every p, all links equal
    for tenths in range(1, 10):
        p = tenths / 10.0
        run_coop = lambda layer: forward_hop(layer, 1, (0,), 2, 0, 3, 1, 1)
        run_rpl = lambda layer: forward_hop(layer, 1, (0,), None, 0, 3, 1, 1)
        d_coop, _ = exact_hop_stats(run_coop, lambda s, d: p)
        d_rpl, _ = exact_hop_stats(run_rpl, lambda s, d: p)
        assert d_coop >= d_rpl
        # closed forms as an independent oracle
        f = (1.0 - p) * (1.0 - p * p)
        assert d_coop == pytest.approx(1.0 - f**4)
        assert d_rpl == pytest.approx(1.0 - (1.0 - p) ** 4)


def test_coop_slots_cover_sender_and_relay_attempts():
    run = lambda layer: forward_hop(layer, 1, (0,), 2, 0, 3, 2, 1)
    stack = [()]
    seen = 0
    while stack and seen < 2000:
        script = stack.pop()
        layer = ScriptedLinkLayer(script)
        try:
            outcome = run(layer)
        except ScriptExhausted:
            stack.append(script + (True,))
            stack.append(script + (False,))
            continue
        seen += 1
        transmissions = outcome.attempts + outcome.relay_attempts
        # ack-timeout gaps may pad slots, one per retry at most
        assert transmissions <= outcome.slots_consumed
        assert outcome.slots_consumed <= transmissions + outcome.attempts - 1
        assert outcome.attempts <= 4
    assert seen > 0


def test_retry_wait_slots_pad_failed_hops():
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0)], lsr=0.0)
    dead = forward_hop(LinkLayer(ch, 1, 0), 1, (0,), None, 0, max_retx=3, relay_retx=1, retx_wait=1)
    assert dead.attempts == 4
    assert dead.slots_consumed == 4 + 3  # three timeout gaps
    no_wait = forward_hop(LinkLayer(ch, 1, 0), 1, (0,), None, 0, max_retx=3, relay_retx=1, retx_wait=0)
    assert no_wait.slots_consumed == 4
    # a relay forward rides inside the sender's timeout gap
    relay_fills_gap = forward_hop(
        ScriptedLinkLayer([False, True, False, False, False]),
        1, (0,), 2, 0, max_retx=1, relay_retx=1, retx_wait=1,
    )
    assert relay_fills_gap.attempts == 2
    assert relay_fills_gap.relay_attempts == 1
    assert relay_fills_gap.slots_consumed == 3  # no idle slot: relay used it


def test_opportunistic_single_member_reduces_to_rpl():
    # same keyed draws: an opp_rpl hop over the set (parent,) is an rpl hop
    # in outcome, packet state and observations
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0)], lsr=0.5)
    fsets = {1: (0,)}
    for packet_id in range(200):
        rpl = _single_hop(ch, packet_id)
        assert _single_hop(ch, packet_id, fsets=fsets) == rpl


def test_opportunistic_union_success_probability():
    members = (2, 3, 4)
    for p in [0.3, 0.5, 0.7]:
        run = lambda layer: forward_hop(layer, 1, members, None, 0, max_retx=0, relay_retx=1, retx_wait=1)
        delivered, _ = exact_hop_stats(run, lambda s, d: p)
        assert delivered == pytest.approx(1.0 - (1.0 - p) ** 3)


# receivers and relay of one hop from node 1; every node is within range of
# every other
ORACLE_HOPS = {
    Protocol.RPL: ((0,), None),
    Protocol.OPP_RPL: ((0, 2, 3), None),
    Protocol.COOP_RPL: ((0,), 4),
}


def hop_failure_probability(protocol, p, max_retx, relay_retx):
    """Closed form: each attempt fails when every receiver misses it and,
    for coop_rpl, the relay misses it or misses all of its forwards."""
    receivers, relay = ORACLE_HOPS[protocol]
    per_attempt = (1 - p) ** len(receivers)
    if relay is not None:
        per_attempt *= 1 - p * (1 - (1 - p) ** relay_retx)
    return per_attempt ** (max_retx + 1)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("protocol", list(ORACLE_HOPS), ids=lambda pr: pr.value)
def test_hop_failure_rate_matches_closed_form(protocol, p):
    # on a swept-LSR channel every link succeeds per attempt with p, and
    # each attempt draws under its own key, so the failure count of
    # independent hops is binomial with the closed-form probability
    max_retx, relay_retx, hops = 3, 1, 20_000
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0), (10.0, 5.0), (10.0, -5.0), (15.0, 8.0)], lsr=p)
    receivers, relay = ORACLE_HOPS[protocol]
    failed = sum(
        not forward_hop(
            LinkLayer(ch, 5, packet_id), 1, receivers, relay, 0, max_retx, relay_retx, 1
        ).delivered
        for packet_id in range(hops)
    )
    q = hop_failure_probability(protocol, p, max_retx, relay_retx)
    z = (failed - hops * q) / math.sqrt(hops * q * (1 - q))
    assert abs(z) <= 4, (failed, hops * q)


def rpl_hop_slots_distribution(p, max_retx, retx_wait):
    """Exact slots-per-hop law of an rpl hop: delivered at attempt k it
    takes k + (k - 1) * retx_wait slots, failed it takes every attempt and
    every gap between them. Returns [(slots, probability)]."""
    law = [
        (k + (k - 1) * retx_wait, p * (1 - p) ** (k - 1))
        for k in range(1, max_retx + 2)
    ]
    law.append((max_retx + 1 + max_retx * retx_wait, (1 - p) ** (max_retx + 1)))
    return law


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_hop_delay_matches_closed_form(p):
    # the per-hop delay oracle: mean slots per rpl hop on a swept-LSR
    # channel against the exact expectation, retry wait included
    max_retx, retx_wait, hops = 3, 2, 20_000
    ch = lsr_channel([(0.0, 0.0), (20.0, 0.0)], lsr=p)
    total = sum(
        forward_hop(
            LinkLayer(ch, 7, packet_id), 1, (0,), None, 0, max_retx, 1, retx_wait
        ).slots_consumed
        for packet_id in range(hops)
    )
    law = rpl_hop_slots_distribution(p, max_retx, retx_wait)
    assert math.fsum(q for _, q in law) == pytest.approx(1.0)
    mean = math.fsum(s * q for s, q in law)
    variance = math.fsum((s - mean) ** 2 * q for s, q in law)
    z = (total / hops - mean) / math.sqrt(variance / hops)
    assert abs(z) <= 4, (total / hops, mean)


def test_opportunistic_dedup_prefers_priority_order():
    members = (5, 7)
    both = forward_hop(ScriptedLinkLayer([True, True]), 1, members, None, 0, 0, 1, 1)
    assert both.receiver == 5  # higher priority wins, no duplicate
    second_only = forward_hop(ScriptedLinkLayer([False, True]), 1, members, None, 0, 0, 1, 1)
    assert second_only.receiver == 7


def test_opportunistic_rejects_empty_set():
    with pytest.raises(ValueError):
        forward_hop(ScriptedLinkLayer([]), 1, (), None, 0, 3, 1, 1)


F, T = False, True


@pytest.mark.parametrize(
    "view, script, expected",
    [
        # each view holds the table its protocol's route refresh fills
        ({}, [F, T], [(1, 0, 2, 1)]),
        ({}, [F] * 4, [(1, 0, 4, 0)]),
        # parent missed, relay overheard and forwarded
        ({"relay_for": {1: 2}}, [F, T, T], [(1, 0, 1, 0), (2, 0, 1, 1)]),
        # relay forward failed, sender's retry got through
        ({"relay_for": {1: 2}}, [F, T, F, T], [(1, 0, 2, 1), (2, 0, 1, 0)]),
        ({"relay_for": {1: 2}}, [F, T, F] * 4, [(1, 0, 4, 0), (2, 0, 4, 0)]),
        ({"fsets": {1: (0, 2)}}, [F, T], [(1, 2, 1, 1)]),
        ({"fsets": {1: (0, 2)}}, [F, F] * 4, [(1, 0, 4, 0), (1, 2, 4, 0)]),
    ],
    ids=[
        "rpl-delivered", "rpl-failed", "coop-by-relay", "coop-direct-after-relay",
        "coop-failed", "opp-second-member", "opp-failed",
    ],
)
def test_hop_observations_follow_one_rule(view, script, expected):
    # (src, dst, attempts, successes): a direct delivery credits the link
    # that carried it; otherwise every receiver's link is charged; relay
    # forwards are credited or charged on the relay-to-parent link
    net, observed = _observing_view(**view)
    packet = Packet(1, source=1, created_slot=0, current_holder=1)
    layer = ScriptedLinkLayer(script)
    advance_one_hop(packet, net, layer, slot=0)
    assert layer.i == len(script)
    assert observed == expected


@pytest.mark.parametrize(
    "script, relay_hops",
    [([T], 0), ([F, T, T], 1), ([F, T, F, T], 1), ([F, F, T], 0)],
    ids=["direct", "by-relay", "overheard-then-direct", "missed-by-relay"],
)
def test_relay_hops_count_hops_the_relay_overheard(script, relay_hops):
    # a hop counts once the relay overheard a copy, whoever then delivered it
    net, _ = _observing_view(relay_for={1: 2})
    packet = Packet(1, source=1, created_slot=0, current_holder=1)
    outcome = advance_one_hop(packet, net, ScriptedLinkLayer(script), slot=0)
    assert outcome.delivered
    assert packet.relay_hops == relay_hops


def _etx_one(src, dst):
    return 1.0


def _ignore(src, dst, attempts, successes):
    pass


def network_view(states, observe_link=_ignore, **view):
    """A view of states rooted at gateway 0 with ScenarioConfig's default
    run parameters; view overrides any of them."""
    cfg = ScenarioConfig()
    params = dict(
        max_retx=cfg.max_retx, relay_retx=cfg.relay_retx, retx_wait=cfg.retx_wait_slots,
        p_coop=cfg.p_coop, relay_for={}, fsets={}, seed=cfg.seed,
    )
    return NetworkView(states, 0, observe_link, **{**params, **view})


def _joined(node_id, rank, parent):
    st = NodeState(node_id, rank=rank, default_parent=parent)
    if parent is not None:
        st.parent_set = {parent: ParentEntry(rank - 1.0, 1.0)}
    return st


def test_build_forwarding_set_orders_by_cost_and_shrinks():
    ch = lsr_channel([(0.0, 0.0), (30.0, 0.0), (20.0, 10.0), (25.0, -10.0)], lsr=1.0)
    states = {
        0: NodeState(0, rank=0.0),
        1: _joined(1, 3.0, 2),
        2: _joined(2, 1.0, 0),
        3: _joined(3, 2.0, 0),
    }
    fset = build_forwarding_set(states[1], states, ch, _etx_one, size=3)
    assert fset == (0, 2, 3)  # ascending rank + link cost
    assert all(states[m].rank < states[1].rank for m in fset)
    capped = build_forwarding_set(states[1], states, ch, _etx_one, size=2)
    assert capped == (0, 2)
    small = build_forwarding_set(states[3], states, ch, _etx_one, size=3)
    assert small == (0, 2)  # set shrinks to the available count


def route_to_gateway(packet: Packet, net: NetworkView, channel: Channel) -> list[HopOutcome]:
    """Drive a packet hop by hop until the gateway or a drop.

    Synchronous driver over advance_one_hop on a static network snapshot;
    the event loop interleaves the same hops with control traffic instead.
    """
    outcomes: list[HopOutcome] = []
    cursor = packet.created_slot
    link_layer = LinkLayer(channel, net.seed, packet.packet_id)
    while packet.delivered_slot is None and packet.drop_reason is None:
        outcome = advance_one_hop(packet, net, link_layer, cursor)
        if outcome is None:
            break
        outcomes.append(outcome)
        cursor += outcome.slots_consumed
    return outcomes


def _two_hop_net(lsr, seed=13, protocol=Protocol.RPL):
    """2 -> 1 -> 0 (gateway), relay 3 near the middle. The view holds the
    table protocol's route refresh fills: coop_rpl the relay, opp_rpl the
    forwarding sets, rpl neither."""
    ch = lsr_channel([(0.0, 0.0), (30.0, 0.0), (60.0, 0.0), (45.0, 10.0)], lsr=lsr)
    states = {
        0: NodeState(0, rank=0.0),
        1: _joined(1, 1.0, 0),
        2: _joined(2, 2.0, 1),
        3: _joined(3, 1.5, 1),
    }
    net = network_view(states, seed=seed)
    if protocol is Protocol.COOP_RPL:
        net.relay_for = {2: 3}
    elif protocol is Protocol.OPP_RPL:
        net.fsets = {
            n: build_forwarding_set(states[n], states, ch, _etx_one, 3) for n in states
        }
    return net, ch


def test_route_adjacent_source_perfect_link():
    net, ch = _two_hop_net(lsr=1.0)
    packet = Packet(packet_id=1, source=1, created_slot=0, current_holder=1)
    route_to_gateway(packet, net, ch)
    assert (packet.delivered_slot, packet.drop_reason) == (1, None)
    assert packet.hop_count == 1
    assert packet.delay_slots == 1
    assert packet.retransmissions == 0


def test_route_chain_delay_is_additive():
    net, ch = _two_hop_net(lsr=1.0)
    packet = Packet(packet_id=2, source=2, created_slot=10, current_holder=2)
    outcomes = route_to_gateway(packet, net, ch)
    assert (packet.delivered_slot, packet.drop_reason) == (12, None)
    assert packet.hop_count == 2
    assert packet.delay_slots == 2
    assert packet.total_transmissions == sum(
        o.attempts + o.relay_attempts for o in outcomes
    )


def test_route_no_parent_drops_with_reason():
    net, ch = _two_hop_net(lsr=1.0)
    net.states[4] = NodeState(4)  # unjoined
    packet = Packet(packet_id=3, source=4, created_slot=0, current_holder=4)
    route_to_gateway(packet, net, ch)
    assert (packet.delivered_slot, packet.drop_reason) == (None, "no-route")


def test_route_loop_trap():
    ch = lsr_channel([(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)], lsr=1.0)
    states = {
        0: NodeState(0, rank=0.0),
        1: _joined(1, 1.0, 2),  # deliberately corrupt: 1 and 2 point at each other
        2: _joined(2, 2.0, 1),
    }
    net = network_view(states, seed=1)
    packet = Packet(packet_id=4, source=1, created_slot=0, current_holder=1)
    route_to_gateway(packet, net, ch)
    assert (packet.delivered_slot, packet.drop_reason) == (None, "loop")


def test_route_outcomes_deterministic_across_replays():
    for protocol in Protocol:
        first = _run_replay(protocol)
        second = _run_replay(protocol)
        assert first == second


def _run_replay(protocol):
    net, ch = _two_hop_net(lsr=0.6, seed=77, protocol=protocol)
    results = []
    for packet_id in range(300):
        packet = Packet(packet_id=packet_id, source=2, created_slot=0, current_holder=2)
        outcomes = route_to_gateway(packet, net, ch)
        results.append((
            packet.delivered_slot, packet.drop_reason,
            packet.total_transmissions, tuple(outcomes),
        ))
    return results


def test_route_retransmission_accounting_identity():
    nets = [_two_hop_net(lsr=0.5, seed=31, protocol=protocol) for protocol in Protocol]
    for packet_id in range(500):
        for net, ch in nets:
            packet = Packet(packet_id=packet_id, source=2, created_slot=0, current_holder=2)
            outcomes = route_to_gateway(packet, net, ch)
            assert packet.total_transmissions == sum(
                o.attempts + o.relay_attempts for o in outcomes
            )
            if packet.delivered_slot is not None:
                assert packet.total_transmissions >= packet.hop_count
                assert packet.delay_slots == sum(o.slots_consumed for o in outcomes)


def test_coop_route_beats_rpl_packetwise_with_shared_draws():
    # same keyed draws: every packet RPL delivers, cooperative routing delivers too
    rpl_net, ch = _two_hop_net(lsr=0.4, seed=91)
    coop_net, _ = _two_hop_net(lsr=0.4, seed=91, protocol=Protocol.COOP_RPL)
    for packet_id in range(400):
        rpl_packet = Packet(packet_id=packet_id, source=2, created_slot=0, current_holder=2)
        route_to_gateway(rpl_packet, rpl_net, ch)
        coop_packet = Packet(packet_id=packet_id, source=2, created_slot=0, current_holder=2)
        route_to_gateway(coop_packet, coop_net, ch)
        if rpl_packet.delivered_slot is not None:
            assert coop_packet.delivered_slot is not None
