import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopmesh.topology import (
    Channel,
    ChannelParams,
    DisconnectedRootError,
    GATEWAY_ID,
    NodePlacement,
    PLACEMENT_ATTEMPTS,
    Region,
    calibrate_params_for_lsr,
    link_success_probability,
    path_loss_linear,
    place_nodes,
)

# the shorter-range channel these tests were written against (50 m, 35 dB);
# a run's own constants come from ScenarioConfig
PARAMS = ChannelParams(
    tx_power_w=2.0, path_loss_exponent=3.0, reference_loss_db=40.0, noise_floor_w=1e-13,
    tx_range_m=50.0, sinr_threshold_db=35.0,
)


def make_channel(positions, params=PARAMS):
    placements = [NodePlacement(i, x, y) for i, (x, y) in enumerate(positions)]
    return Channel(placements, params)


def test_region_rejects_nonpositive_side():
    with pytest.raises(ValueError):
        Region(0.0)


def test_place_nodes_deterministic():
    region = Region(300.0)
    a = place_nodes(region, 8.9e-4, seed=42, params=PARAMS)
    b = place_nodes(region, 8.9e-4, seed=42, params=PARAMS)
    assert a == b


def test_place_nodes_gateway_centered_and_ids_unique():
    region = Region(300.0)
    placements = place_nodes(region, 8.9e-4, seed=7, params=PARAMS)
    gw = placements[0]
    assert gw.node_id == GATEWAY_ID
    assert gw.x == gw.y == 150.0
    ids = [p.node_id for p in placements]
    assert len(ids) == len(set(ids))
    for p in placements:
        assert 0.0 <= p.x <= region.side_length
        assert 0.0 <= p.y <= region.side_length


def test_place_nodes_empty_network_reports_disconnected_root():
    # intensity so small the expected count is ~0: gateway alone, all
    # PLACEMENT_ATTEMPTS placements fail
    assert PLACEMENT_ATTEMPTS == 20
    with pytest.raises(DisconnectedRootError, match="disconnected-root"):
        place_nodes(Region(300.0), 1e-9, seed=3, params=PARAMS)


def test_place_nodes_count_scales_with_intensity():
    region = Region(300.0)
    placements = place_nodes(region, 8.9e-4, seed=11, params=PARAMS)
    # expected ~80 meters + gateway; Poisson spread is ~9
    assert 45 <= len(placements) <= 125


def test_path_loss_reference_distance_identity():
    p = replace(PARAMS, reference_loss_db=40.0)
    assert path_loss_linear(1.0, p) == pytest.approx(10 ** (-4.0))


def test_path_loss_analytic_point():
    p = replace(PARAMS, path_loss_exponent=2.0, reference_loss_db=0.0)
    assert path_loss_linear(10.0, p) == pytest.approx(0.01)


def test_path_loss_doubling_ratio():
    p = replace(PARAMS, path_loss_exponent=3.0)
    assert path_loss_linear(20.0, p) / path_loss_linear(10.0, p) == pytest.approx(0.125)


def test_path_loss_monotone_decreasing():
    last = math.inf
    for d in [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 120.0]:
        att = path_loss_linear(d, PARAMS)
        assert att < last
        last = att


def test_path_loss_zero_distance_is_degenerate():
    with pytest.raises(ValueError, match="degenerate-link"):
        path_loss_linear(0.0, PARAMS)


def test_compute_sinr_snr_only_case():
    ch = make_channel([(0.0, 0.0), (30.0, 0.0)])
    rx_power = ch.rx_power(1, 0)
    expected = 10.0 * math.log10(rx_power / PARAMS.noise_floor_w)
    assert ch.compute_sinr(0, 1, frozenset()) == pytest.approx(expected)


def test_compute_sinr_equal_power_interferer_near_zero_db():
    # tx and interferer equidistant from rx; noise far below rx power
    ch = make_channel([(0.0, 0.0), (30.0, 0.0), (-30.0, 0.0)])
    sinr = ch.compute_sinr(0, 1, {2})
    assert abs(sinr) < 0.01


def test_compute_sinr_interferers_strictly_decrease():
    ch = make_channel([(0.0, 0.0), (30.0, 0.0), (0.0, 40.0), (40.0, 40.0)])
    clean = ch.compute_sinr(0, 1, frozenset())
    one = ch.compute_sinr(0, 1, {2})
    two = ch.compute_sinr(0, 1, {2, 3})
    assert clean > one > two


def test_compute_sinr_rejects_tx_in_interferer_set():
    ch = make_channel([(0.0, 0.0), (30.0, 0.0)])
    with pytest.raises(ValueError):
        ch.compute_sinr(0, 1, {1})


def test_swept_lsr_uniform_over_links():
    params = replace(PARAMS, lsr_value=0.7)
    for power in [1e-12, 1e-9, 1.0]:  # weak to strong links
        assert link_success_probability(power, params) == 0.7


def test_physical_success_approaches_one_at_high_snr():
    # 1 W received: enormous SNR
    assert link_success_probability(1.0, PARAMS) > 0.999999


def test_physical_success_at_threshold_equals_inverse_e():
    # mean SNR equal to the detection threshold
    params = replace(PARAMS, sinr_threshold_db=20.0)
    power = params.noise_floor_w * 100.0
    assert link_success_probability(power, params) == pytest.approx(math.exp(-1.0))


def test_nonexistent_link_never_succeeds():
    # 60 m apart, beyond the 50 m range, though the power alone would give
    # the pair a fair chance on a physical and on a swept channel
    for lsr_value in (None, 0.7):
        params = replace(PARAMS, lsr_value=lsr_value)
        ch = make_channel([(0.0, 0.0), (60.0, 0.0)], params=params)
        assert link_success_probability(ch.rx_power(0, 1), params) > 0.5
        assert ch.success_probability(0, 1) == ch.success_probability(1, 0) == 0.0


def test_compute_sinr_caches_each_link_read_as_its_power():
    ch = make_channel([(0.0, 0.0), (30.0, 0.0), (0.0, 40.0), (90.0, 0.0)])
    assert ch._links == {}
    ch.compute_sinr(0, 1, {2, 3})
    ch.compute_sinr(1, 2, frozenset())
    assert set(ch._links) == {(1, 0), (2, 0), (3, 0), (2, 1)}
    for (src, dst), power in ch._links.items():
        assert type(power) is float
        assert power == ch.rx_power(src, dst)
        assert power == PARAMS.tx_power_w * path_loss_linear(ch.distance(src, dst), PARAMS)


def test_channel_takes_placements_and_params_by_position():
    placements = [NodePlacement(0, 0.0, 0.0), NodePlacement(1, 30.0, 0.0)]
    ch = Channel(placements, PARAMS)
    assert (ch.placements, ch.params) == (placements, PARAMS)
    assert ch.node_ids == (0, 1)
    with pytest.raises(ValueError, match="node ids must be unique"):
        Channel([*placements, NodePlacement(1, 5.0, 5.0)], PARAMS)


def test_calibrated_lsr_hits_reference_distance():
    for lsr in [0.5, 0.7, 0.9]:
        params = calibrate_params_for_lsr(PARAMS, lsr, reference_distance=35.0)
        ch = make_channel([(0.0, 0.0), (35.0, 0.0)], params=params)
        p = ch.success_probability(1, 0)
        assert p == pytest.approx(lsr, abs=1e-9)
        # closer links do better, longer ones worse
        near = make_channel([(0.0, 0.0), (15.0, 0.0)], params=params)
        far = make_channel([(0.0, 0.0), (49.0, 0.0)], params=params)
        assert near.success_probability(1, 0) > lsr
        assert far.success_probability(1, 0) < lsr


def test_calibrated_lsr_one_gives_perfect_links():
    params = calibrate_params_for_lsr(PARAMS, 1.0, reference_distance=35.0)
    ch = make_channel([(0.0, 0.0), (49.0, 0.0)], params=params)
    assert ch.success_probability(1, 0) == pytest.approx(1.0)


def test_neighbors_isolated_node_empty():
    ch = make_channel([(0.0, 0.0), (200.0, 200.0)])
    assert ch.neighbors(0) == []
    assert ch.neighbors(1) == []


def test_neighbors_boundary_is_closed_ball():
    ch = make_channel([(0.0, 0.0), (PARAMS.tx_range_m, 0.0)])
    assert ch.neighbors(0) == [1]
    assert ch.neighbors(1) == [0]


def test_neighbor_relation_symmetric_and_loop_free():
    region = Region(300.0)
    placements = place_nodes(region, 8.9e-4, seed=21, params=PARAMS)
    ch = Channel(placements, PARAMS)
    for node in ch.node_ids:
        assert node not in ch.neighbors(node)
        for other in ch.neighbors(node):
            assert node in ch.neighbors(other)



def all_pairs_neighbors(ch, node):
    """The all-pairs scan the grid replaces: every node within range, by id."""
    reach = ch.params.tx_range_m
    return [o for o in sorted(ch.node_ids) if o != node and ch.distance(node, o) <= reach]


def assert_grid_equals_scan(ch):
    for node in ch.node_ids:
        assert ch.neighbors(node) == all_pairs_neighbors(ch, node), node


@pytest.mark.parametrize("tx_range_m", [10.0, 50.0, 70.0, 123.4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grid_neighbors_equal_the_scan_on_placements(seed, tx_range_m):
    params = replace(PARAMS, tx_range_m=tx_range_m)
    placements = place_nodes(Region(300.0), 1.5e-3, seed=seed, params=params)
    assert_grid_equals_scan(Channel(placements, params))


@pytest.mark.parametrize("tx_range_m", [10.0, 50.0, 123.4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relay_legs_are_the_shared_neighbours(seed, tx_range_m):
    params = replace(PARAMS, tx_range_m=tx_range_m)
    placements = place_nodes(Region(300.0), 1.5e-3, seed=seed, params=params)
    ch = Channel(placements, params)
    for src in ch.node_ids:
        for dst in ch.node_ids:
            shared = set(ch.neighbors(src)) & set(ch.neighbors(dst)) - {dst}
            assert ch.relay_legs(src, dst) == tuple(sorted(shared)), (src, dst)


def test_relay_legs_leave_out_the_parent_and_nodes_it_cannot_reach():
    # hop 1 -> 0: 2 reaches both ends, 3 only the sender (110 m from 0),
    # 4 only the parent (110 m from 1)
    ch = make_channel(
        [(0, 0), (60, 0), (40, 20), (110, 0), (-50, 0)], replace(PARAMS, tx_range_m=70.0)
    )
    assert ch.neighbors(1) == [0, 2, 3]
    assert ch.neighbors(0) == [1, 2, 4]
    assert ch.relay_legs(1, 0) == (2,)
    assert ch.relay_legs(0, 1) == (2,)


@settings(max_examples=200, deadline=None)
@given(
    positions=st.lists(
        st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)), min_size=1, max_size=40
    ),
    reach=st.floats(1e-6, 1e3),
)
def test_grid_neighbors_equal_the_scan_on_drawn_points(positions, reach):
    # drawn points repeat and cluster often, and a range is sometimes drawn
    # as one of their distances
    ch = make_channel(positions, params=replace(PARAMS, tx_range_m=reach))
    assert_grid_equals_scan(ch)
    if len(positions) > 1:
        exact = replace(PARAMS, tx_range_m=ch.distance(0, 1) or reach)
        assert_grid_equals_scan(make_channel(positions, params=exact))


@pytest.mark.parametrize("reach", [0.1, 1.0 / 3.0, 7.0, 50.0, 70.0, 1e6 / 7.0])
def test_grid_neighbors_keep_pairs_at_exactly_the_range(reach):
    # three nodes exactly one range from the origin, then rows spaced one
    # range apart off the origin and 3-4-5 pairs, whose distances round to
    # the range or just beside it
    positions = [(0.0, 0.0), (reach, 0.0), (0.0, reach), (-reach, 0.0)]
    positions += [(1.0 + k * reach, 2.0) for k in range(6)]
    positions += [(1.0 + k * reach, 2.0 + reach) for k in range(6)]
    positions += [(0.6 * reach, 0.8 * reach), (-0.6 * reach, -0.8 * reach)]
    ch = make_channel(positions, params=replace(PARAMS, tx_range_m=reach))
    assert [ch.distance(0, n) for n in (1, 2, 3)] == [reach] * 3
    assert {1, 2, 3} <= set(ch.neighbors(0))
    assert_grid_equals_scan(ch)


@pytest.mark.parametrize("reach, x0, x1, x2", [
    (90.72557171887829, 662.2685058344357, 2658.2310836497577, 2748.956655368636),
    (59.68875154308655, 216.40202403154152, 455.1570302038877, 514.8457817469742),
    (90.60194219128167, 894.1069816073009, 5061.796322406257, 5152.398264597538),
    (84.4438476042526, 58.74292626069533, 312.0744690734531, 396.5183166777057),
])
def test_grid_neighbors_keep_pairs_that_cells_one_range_wide_would_split(reach, x0, x1, x2):
    # x1 and x2 lie within range by distance(), yet (x - x0) / reach rounds
    # them two cells apart: cells exactly one range wide would drop the pair
    assert math.hypot(x1 - x2, 0.0) <= reach
    assert int((x2 - x0) / reach) - int((x1 - x0) / reach) == 2
    ch = make_channel([(x0, 0.0), (x1, 0.0), (x2, 0.0)], params=replace(PARAMS, tx_range_m=reach))
    assert ch.neighbors(1) == [2]
    assert_grid_equals_scan(ch)


def test_grid_neighbors_on_cell_edges():
    # points on and beside multiples of the range and of the range widened
    # by the cell margin, from a minimum corner at the origin
    reach = 50.0
    edges = []
    for k in range(5):
        for step in (reach, reach * (1.0 + 2.0**-20)):
            x = k * step
            edges += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
    edges = sorted({x for x in edges if x >= 0.0})
    positions = [(x, y) for x in edges[::2] for y in (0.0, edges[len(edges) // 2])]
    positions += [(x, x) for x in edges[1::3]]
    assert_grid_equals_scan(make_channel(positions))


@pytest.mark.parametrize("reach", [300.0, 1e3, 1e300])
def test_grid_neighbors_with_range_past_the_region(reach):
    placements = place_nodes(Region(300.0), 5e-4, seed=4, params=PARAMS)
    ch = Channel(placements, replace(PARAMS, tx_range_m=reach))
    assert_grid_equals_scan(ch)
    if reach > 300.0 * math.sqrt(2.0):
        assert all(len(ch.neighbors(n)) == len(placements) - 1 for n in ch.node_ids)


@pytest.mark.parametrize("reach", [1e-3, 1e-9, 1e-300, 5e-324])
def test_grid_neighbors_with_range_far_below_the_region(reach):
    # a cell as narrow as the range would put a coordinate's cell index at
    # up to 1e6 / 5e-324, which is no finite float (OverflowError in int());
    # the grid caps the cells per axis instead
    placements = place_nodes(Region(1e6), 1e-10, seed=2, params=replace(PARAMS, tx_range_m=1e6))
    base = placements[1]
    placements.append(NodePlacement(len(placements), base.x + reach / 2.0, base.y))
    ch = Channel(placements, replace(PARAMS, tx_range_m=reach))
    assert_grid_equals_scan(ch)
    assert ch.neighbors(base.node_id) == [len(placements) - 1]


def test_node_ids_are_sorted_once():
    ch = make_channel([(5.0, 5.0), (1.0, 1.0), (3.0, 3.0)])
    assert list(ch.node_ids) == [0, 1, 2]
    assert ch.node_ids is ch.node_ids
