import math

from coopmesh import rng
from coopmesh.forwarding import LinkLayer
from coopmesh.rng import uniform
from coopmesh.topology import (
    Channel,
    ChannelMode,
    ChannelParams,
    NodePlacement,
    fading_gain,
)


def test_top_u64_values_map_below_one():
    # u64 / 2**64 rounds to 1.0 for the top 2**10 values
    assert (2**64 - 2**10) / 2**64 == 1.0
    for top in (2**64 - 1, 2**64 - 2**10):
        assert rng._unit(top) == math.nextafter(1.0, 0.0)
    below = 2**64 - 2**10 - 1
    assert rng._unit(below) == below / 2**64 < 1.0
    assert rng._unit(0) == 0.0


def test_both_draws_go_through_the_conversion(monkeypatch):
    # link draws on a packed key and on both fallbacks to uniform: a seed
    # past int64 (the prefix does not pack) and a node id past int64 (the
    # suffix does not)
    params = ChannelParams(
        tx_power_w=2.0, path_loss_exponent=3.0, reference_loss_db=40.0,
        noise_floor_w=1e-13, tx_range_m=50.0, sinr_threshold_db=35.0,
        mode=ChannelMode.SWEPT_LSR, lsr_value=0.5,
    )
    big = 2**63
    channel = Channel(
        [NodePlacement(0, 0.0, 0.0), NodePlacement(1, 10.0, 0.0), NodePlacement(big, 20.0, 0.0)],
        params, seed=1,
    )
    for unit, succeeds in ((-1.0, True), (1.0, False)):
        monkeypatch.setattr(rng, "_unit", lambda u64, unit=unit: unit)
        assert uniform(3, 4, 5) == unit
        for seed in (3, 2**70):
            layer = LinkLayer(channel, seed, packet_id=9)
            for src, dst in ((1, 0), (big, 1), (1, big)):
                assert channel.success_probability(src, dst) > 0
                assert [layer.transmit(src, dst, slot) for slot in range(3)] == [succeeds] * 3


def test_fading_gain_is_finite_at_the_top_draw(monkeypatch):
    monkeypatch.setattr(rng, "_draw_u64", lambda seed, key: 2**64 - 1)
    gain = fading_gain(1, 2, 3, seed=4)
    assert math.isfinite(gain) and gain > 0
