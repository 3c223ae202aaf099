import random

import pytest

from coopmesh.coop_relay import (
    CandidateMetrics,
    RateWeights,
    RoutingClass,
    WEIGHT_PRESETS,
    best_relay,
    compute_rate,
    compute_rates,
    eligible,
    eligible_class_a,
    eligible_class_b,
    eligible_class_c,
    filter_candidates_by_rank,
    run_selection,
    select_relay,
    term_bounds,
)
from coopmesh.forwarding import Protocol
from coopmesh.rpl_core import NodeState
from coopmesh.sim_engine import ScenarioConfig, form_network
from coopmesh.topology import Channel, ChannelParams, NodePlacement


def metrics(
    relay=1,
    sinr_s_r=10.0,
    sinr_r_d=10.0,
    sinr_s_d=5.0,
    nac_r=0,
    nac_s=1,
    nch_r=0,
    nch_s=1,
    etx_s_r=1.0,
    etx_r_d=1.0,
    etx_s_d=3.0,
):
    return CandidateMetrics(
        relay, sinr_s_r, sinr_r_d, sinr_s_d,
        nac_r, nac_s, nch_r, nch_s, etx_s_r, etx_r_d, etx_s_d,
    )


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        RateWeights(0.5, 0.5, 0.5, 0.5)
    RateWeights(0.25, 0.25, 0.25, 0.25)  # valid


def test_weight_presets_are_valid_and_dominant():
    for cls, w in WEIGHT_PRESETS.items():
        total = w.w_sinr + w.w_traffic + w.w_nch + w.w_etx
        assert total == pytest.approx(1.0)
    assert WEIGHT_PRESETS[RoutingClass.CLASS_A].w_sinr > 0.5
    assert WEIGHT_PRESETS[RoutingClass.CLASS_C].w_etx > 0.5


def test_class_a_both_legs_must_beat_direct():
    assert eligible_class_a(metrics(sinr_s_r=10, sinr_r_d=12, sinr_s_d=5)) is True
    assert eligible_class_a(metrics(sinr_s_r=10, sinr_r_d=5, sinr_s_d=5)) is False
    assert eligible_class_a(metrics(sinr_s_r=4, sinr_r_d=12, sinr_s_d=5)) is False


def test_class_b_strict_load_inequalities():
    assert eligible_class_b(metrics(nac_r=1, nac_s=3, nch_r=0, nch_s=2)) is True
    assert eligible_class_b(metrics(nac_r=3, nac_s=3, nch_r=0, nch_s=2)) is False
    # leaf sender: nothing can be strictly below zero
    assert eligible_class_b(metrics(nac_r=0, nac_s=0, nch_r=0, nch_s=0)) is False


def test_class_c_two_leg_etx_must_beat_direct():
    assert eligible_class_c(metrics(etx_s_d=4.0, etx_s_r=1.5, etx_r_d=2.0)) is True
    assert eligible_class_c(metrics(etx_s_d=3.5, etx_s_r=1.5, etx_r_d=2.0)) is False
    # perfect direct link can never be beaten by two legs of >= 1 each
    assert eligible_class_c(metrics(etx_s_d=1.0, etx_s_r=1.0, etx_r_d=1.0)) is False


def test_best_effort_admits_union():
    only_b = metrics(sinr_s_r=1.0, sinr_r_d=1.0, sinr_s_d=5.0,
                     nac_r=0, nac_s=2, nch_r=0, nch_s=2,
                     etx_s_d=2.0, etx_s_r=1.5, etx_r_d=1.5)
    assert eligible_class_a(only_b) is False
    assert eligible_class_c(only_b) is False
    assert eligible(only_b, RoutingClass.BEST_EFFORT) is True
    nothing = metrics(sinr_s_r=1.0, sinr_r_d=1.0, sinr_s_d=5.0,
                      nac_r=2, nac_s=2, nch_r=2, nch_s=2,
                      etx_s_d=2.0, etx_s_r=1.5, etx_r_d=1.5)
    assert eligible(nothing, RoutingClass.BEST_EFFORT) is False


def test_rate_sinr_weight_orders_by_min_leg():
    x = metrics(relay=1, sinr_s_r=10.0, sinr_r_d=14.0)  # min 10
    y = metrics(relay=2, sinr_s_r=5.0, sinr_r_d=20.0)  # min 5
    w = RateWeights(1.0, 0.0, 0.0, 0.0)
    rates = compute_rates([x, y], w)
    assert rates[1] > rates[2]


def test_rate_etx_weight_prefers_cheaper_legs():
    x = metrics(relay=1, etx_s_r=1.2, etx_r_d=1.3)
    y = metrics(relay=2, etx_s_r=2.0, etx_r_d=2.5)
    w = RateWeights(0.0, 0.0, 0.0, 1.0)
    rates = compute_rates([x, y], w)
    assert rates[1] > rates[2]


def test_rate_identical_metrics_identical_rates():
    x = metrics(relay=1)
    y = metrics(relay=2)
    rates = compute_rates([x, y], WEIGHT_PRESETS[RoutingClass.BEST_EFFORT])
    assert rates[1] == rates[2]


def test_select_relay_empty_means_direct_path():
    assert select_relay([], WEIGHT_PRESETS[RoutingClass.CLASS_A]) is None


def test_select_relay_single_candidate():
    assert select_relay([metrics(relay=7)], WEIGHT_PRESETS[RoutingClass.CLASS_A]) == 7


def test_select_relay_max_rate_with_low_id_tie_break():
    # 9 scores strictly below; 4 and 2 tie at the top -> 2 wins
    worse = metrics(relay=9, sinr_s_r=6.0, sinr_r_d=6.0)
    tie_a = metrics(relay=4, sinr_s_r=12.0, sinr_r_d=12.0)
    tie_b = metrics(relay=2, sinr_s_r=12.0, sinr_r_d=12.0)
    w = WEIGHT_PRESETS[RoutingClass.CLASS_A]
    cands = [worse, tie_a, tie_b]
    rates = compute_rates(cands, w)
    assert rates[4] == rates[2] and rates[9] < rates[2]
    # brute-force oracle over the rate table
    best = min(rates, key=lambda r: (-rates[r], r))
    assert select_relay(cands, w) == best == 2


def _random_candidates(rng, n):
    return [
        metrics(
            relay=relay,
            sinr_s_r=rng.uniform(-5, 40),
            sinr_r_d=rng.uniform(-5, 40),
            sinr_s_d=rng.uniform(-5, 40),
            nac_r=rng.randint(0, 20),
            nac_s=rng.randint(0, 20),
            nch_r=rng.randint(0, 10),
            nch_s=rng.randint(0, 10),
            etx_s_r=rng.uniform(1, 16),
            etx_r_d=rng.uniform(1, 16),
            etx_s_d=rng.uniform(1, 16),
        )
        for relay in rng.sample(range(1, 4000), n)
    ]


class _ScaledWeights:
    """Weight bundle with the sum-to-1 invariant deliberately relaxed."""

    def __init__(self, w, c):
        self.w_sinr = w.w_sinr * c
        self.w_traffic = w.w_traffic * c
        self.w_nch = w.w_nch * c
        self.w_etx = w.w_etx * c


def test_argmax_invariant_under_weight_scaling():
    rng = random.Random(2024)
    for _ in range(1000):
        cands = _random_candidates(rng, rng.randint(1, 8))
        w = RateWeights(0.25, 0.25, 0.25, 0.25)
        c = rng.uniform(0.01, 50.0)
        scaled = _ScaledWeights(w, c)
        assert select_relay(cands, w) == select_relay(cands, scaled)
        bounds = term_bounds(cands)
        for m in cands:
            assert compute_rate(m, scaled, bounds) == pytest.approx(
                c * compute_rate(m, w, bounds)
            )


def test_candidate_edits_keep_selection_at_fixed_bounds():
    rng = random.Random(99)
    w = WEIGHT_PRESETS[RoutingClass.BEST_EFFORT]
    for _ in range(200):
        cands = _random_candidates(rng, rng.randint(2, 8))
        bounds = term_bounds(cands)
        rates = compute_rates(cands, w, bounds)
        chosen = select_relay(cands, w, bounds)
        # dropping any non-selected candidate cannot change the winner
        for removed in cands:
            if removed.relay == chosen:
                continue
            rest = [m for m in cands if m.relay is not removed.relay]
            assert select_relay(rest, w, bounds) == chosen
        # adding a candidate scoring strictly below the max cannot either
        low = metrics(relay=4999, sinr_s_r=-50.0, sinr_r_d=-50.0,
                      nac_r=100, nch_r=100, etx_s_r=16.0, etx_r_d=16.0)
        assert compute_rate(low, w, bounds) < rates[chosen]
        assert select_relay(cands + [low], w, bounds) == chosen


def _node(node_id, rank, parent=None):
    state = NodeState(node_id, rank=rank)
    state.default_parent = parent
    return state


def test_filter_keeps_only_strictly_lower_ranks():
    sender = _node(5, rank=3.0, parent=1)
    neighbors = [
        _node(1, 1.0),  # default parent: excluded
        _node(2, 2.0),  # kept
        _node(3, 3.0),  # equal rank: excluded
        _node(4, 4.5),  # higher: excluded
        NodeState(6),  # unjoined: excluded
    ]
    assert filter_candidates_by_rank(sender, neighbors) == {2}


def test_filter_empty_when_everyone_is_above():
    sender = _node(5, rank=1.0, parent=0)
    neighbors = [_node(2, 2.0), _node(3, 3.0)]
    assert filter_candidates_by_rank(sender, neighbors) == set()


def test_filter_requires_joined_sender():
    with pytest.raises(ValueError):
        filter_candidates_by_rank(NodeState(5), [])


def reference_selection(sender, states, channel, etx_of, routing_class, interferers):
    """The selection stage by stage: rank filter, full compute_sinr metrics
    for every candidate that reaches the parent, eligibility, rates."""
    s, parent = sender.node_id, sender.default_parent
    neighbor_states = [states[n] for n in channel.neighbors(s)]
    metrics = []
    for r in sorted(filter_candidates_by_rank(sender, neighbor_states)):
        if channel.distance(r, parent) > channel.params.tx_range_m:
            continue
        clean = frozenset(t for t in interferers if t not in (s, r))
        metrics.append(CandidateMetrics(
            r,
            channel.compute_sinr(r, s, clean),
            channel.compute_sinr(parent, r, clean),
            channel.compute_sinr(parent, s, clean),
            states[r].active_connections, sender.active_connections,
            len(states[r].children), len(sender.children),
            etx_of(s, r), etx_of(r, parent), etx_of(s, parent),
        ))
    rates = compute_rates(
        [m for m in metrics if eligible(m, routing_class)], WEIGHT_PRESETS[routing_class]
    )
    return best_relay(rates), rates


def test_run_selection_equals_stage_by_stage_reference():
    # interferers drawn from the sender, its parent and its neighbors, so
    # every SINR case meets candidates that are themselves transmitting
    rng = random.Random(4242)
    seen_sizes = set()
    for seed in (1, 2):
        sim = form_network(ScenarioConfig(
            protocol=Protocol.COOP_RPL, lsr_value=0.6, density_ratio=1.5, seed=seed,
        ))
        senders = [st for st in sim.states.values() if st.default_parent is not None]
        for sender in senders:
            pool = [sender.node_id, sender.default_parent] + sim.channel.neighbors(sender.node_id)
            for routing_class in RoutingClass:
                size = rng.choice([0, 1, 1, 2, 3, 5])
                interferers = frozenset(rng.sample(pool, min(size, len(pool))))
                seen_sizes.add(len(interferers))
                args = (sender, sim.states, sim.channel, sim.etx_of, routing_class)
                got = run_selection(*args, WEIGHT_PRESETS[routing_class], interferers)
                assert got == reference_selection(*args, interferers)
    assert {0, 1, 2, 3, 5} <= seen_sizes


def test_run_selection_rank_and_reach_rules():
    # sender 1 (rank 3, parent 0): 2 sits lower and reaches 0; 3 shares the
    # sender's rank; 4 has not joined; 5 sits lower but is 110 m from 0
    positions = {0: (0, 0), 1: (60, 0), 2: (40, 20), 3: (40, -20), 4: (70, 10), 5: (110, 0)}
    channel = Channel(
        [NodePlacement(n, x, y) for n, (x, y) in positions.items()],
        ChannelParams(
            tx_power_w=2.0, path_loss_exponent=3.0, reference_loss_db=40.0,
            noise_floor_w=1e-13, tx_range_m=70.0, sinr_threshold_db=35.0,
        ),
    )
    ranks = {0: 0.0, 1: 3.0, 2: 2.0, 3: 3.0, 4: None, 5: 1.5}
    states = {n: _node(n, rank) for n, rank in ranks.items()}
    sender = states[1]
    sender.default_parent = 0
    sender.active_connections, sender.children = 2, {7, 8}
    args = (sender, states, channel, lambda a, b: 1.0, RoutingClass.CLASS_B)
    selected, rates = run_selection(*args, WEIGHT_PRESETS[RoutingClass.CLASS_B], frozenset())
    assert (selected, set(rates)) == (2, {2})
    assert (selected, rates) == reference_selection(*args, frozenset())


@pytest.mark.parametrize("candidate_at, first_leg_holds", [((0, 60), False), ((30, 20), True)])
def test_class_a_second_leg_is_computed_only_when_the_first_holds(candidate_at, first_leg_holds):
    # sender 1 is 60 m from its parent 0; candidate 2 passes neither class
    # b (the sender carries no load) nor c (every ETX is 1), so best-effort
    # admits it by class a alone: its first leg is 85 m or 36 m long
    positions = {0: (0, 0), 1: (60, 0), 2: candidate_at}
    channel = Channel(
        [NodePlacement(n, x, y) for n, (x, y) in positions.items()],
        ChannelParams(
            tx_power_w=2.0, path_loss_exponent=3.0, reference_loss_db=40.0,
            noise_floor_w=1e-13, tx_range_m=100.0, sinr_threshold_db=35.0,
        ),
    )
    states = {0: _node(0, 0.0), 1: _node(1, 3.0, parent=0), 2: _node(2, 2.0)}
    args = (states[1], states, channel, lambda a, b: 1.0, RoutingClass.BEST_EFFORT)
    expected = reference_selection(*args, frozenset())
    calls = []
    compute_sinr = channel.compute_sinr

    def recording(rx, tx, *rest):
        calls.append((rx, tx))
        return compute_sinr(rx, tx, *rest)

    channel.compute_sinr = recording
    got = run_selection(*args, WEIGHT_PRESETS[RoutingClass.BEST_EFFORT], frozenset())
    assert got == expected
    assert got[0] == (2 if first_leg_holds else None)
    naming_candidate = [call for call in calls if 2 in call]
    assert naming_candidate == ([(2, 1), (0, 2)] if first_leg_holds else [(2, 1)])
