import hashlib
import math
import struct

from hypothesis import example, given
from hypothesis import strategies as st

from coopmesh import rng
from coopmesh.forwarding import LinkLayer
from coopmesh.rng import derive_seed, uniform
from coopmesh.topology import Channel, ChannelParams, NodePlacement


def test_top_u64_values_map_below_one():
    # u64 / 2**64 rounds to 1.0 for the top 2**10 values
    assert (2**64 - 2**10) / 2**64 == 1.0
    for top in (2**64 - 1, 2**64 - 2**10):
        assert rng._unit(top) == math.nextafter(1.0, 0.0)
    below = 2**64 - 2**10 - 1
    assert rng._unit(below) == below / 2**64 < 1.0
    assert rng._unit(0) == 0.0


@example(u64=2**53 - 1)
@example(u64=2**53 + 1)
@example(u64=2**63 + 2**10)
@example(u64=rng._TOP - 1)
@example(u64=rng._TOP)
@given(u64=st.integers(0, 2**64 - 1))
def test_conversion_is_the_correctly_rounded_quotient(u64):
    # the conversion scales by 2**-64 rather than dividing; both give the
    # double nearest u64 / 2**64, capped below 1
    if u64 < rng._TOP:
        assert rng._unit(u64) == u64 / 2**64
    else:
        assert rng._unit(u64) == math.nextafter(1.0, 0.0)


# a node id past int64, whose draws' keys do not pack
BIG = 2**63


def line_channel():
    params = ChannelParams(
        tx_power_w=2.0, path_loss_exponent=3.0, reference_loss_db=40.0,
        noise_floor_w=1e-13, tx_range_m=50.0, sinr_threshold_db=35.0, lsr_value=0.5,
    )
    return Channel(
        [NodePlacement(0, 0.0, 0.0), NodePlacement(1, 10.0, 0.0), NodePlacement(BIG, 20.0, 0.0)],
        params,
    )


def test_both_draws_go_through_the_conversion(monkeypatch):
    # link draws on a packed key and on the fallback to uniform, which a
    # seed or a node id past int64 takes (the key does not pack)
    channel = line_channel()
    for unit, succeeds in ((-1.0, True), (1.0, False)):
        monkeypatch.setattr(rng, "_unit", lambda u64, unit=unit: unit)
        assert uniform(3, 4, 5) == unit
        for seed in (3, 2**70):
            layer = LinkLayer(channel, seed, packet_id=9)
            for src, dst in ((1, 0), (BIG, 1), (1, BIG)):
                assert channel.success_probability(src, dst) > 0
                assert [layer.transmit(src, dst, slot) for slot in range(3)] == [succeeds] * 3


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# key parts at, inside and just past both int64 edges
_PART = st.one_of(
    st.sampled_from([_INT64_MIN - 1, _INT64_MIN, _INT64_MAX, _INT64_MAX + 1]),
    st.integers(_INT64_MIN - 2**8, _INT64_MAX + 2**8),
)


@given(seed=_PART, key=st.lists(_PART, min_size=1, max_size=8).map(tuple))
def test_draw_bytes_are_the_packed_key_hashed_once(seed, key):
    # pins the draw's bytes independently of how they are hashed
    if all(_INT64_MIN <= part <= _INT64_MAX for part in (seed, *key)):
        material = struct.pack(f"<{len(key) + 1}q", seed, *key)
        digest = hashlib.blake2b(material, digest_size=8).digest()
        expected = int.from_bytes(digest, "little")
    else:
        expected = derive_seed(seed, *key)
    assert rng._draw_u64(seed, key) == expected


def test_every_draw_hashes_once_through_the_helper(monkeypatch):
    materials = []
    hash_u64 = rng._hash_u64

    def counting(material):
        materials.append(material)
        return hash_u64(material)

    monkeypatch.setattr(rng, "_hash_u64", counting)
    channel = line_channel()
    draws = [
        lambda: derive_seed(1, "a"),
        lambda: rng._draw_u64(1, (2, 3)),
        lambda: rng._draw_u64(1, (BIG,)),
        lambda: LinkLayer(channel, 3, packet_id=9).transmit(1, 0, 0),
        lambda: LinkLayer(channel, 3, packet_id=9).transmit(BIG, 1, 0),
    ]
    for draw in draws:
        materials.clear()
        draw()
        assert len(materials) == 1


def test_draws_leave_the_shared_empty_state_empty():
    channel = line_channel()
    layer = LinkLayer(channel, 3, packet_id=9)
    for n in range(50):
        derive_seed(n, "x")
        uniform(n, 4, BIG)
        layer.transmit(1, 0, n)
    empty = hashlib.blake2b(b"", digest_size=8)
    assert rng._EMPTY.digest() == empty.digest()
    for material in (b"", b"x", struct.pack("<3q", 1, 2, 3)):
        expected = hashlib.blake2b(material, digest_size=8).digest()
        assert rng._hash_u64(material) == int.from_bytes(expected, "little")
