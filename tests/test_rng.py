import math

from hypothesis import given, settings
from hypothesis import strategies as st

from coopmesh import rng
from coopmesh.rng import prefixed_uniform, uniform
from coopmesh.topology import fading_gain

# int64 values, plus ints on both sides of the int64 range (those take the
# repr path) and a few non-ints (likewise)
key_parts = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63) - 1),
    st.sampled_from([0, -1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1]),
    st.sampled_from(["a", 0.5, None]),
)


@settings(max_examples=400, deadline=None)
@given(
    seed=key_parts,
    key=st.lists(key_parts, min_size=1, max_size=10),
    split=st.integers(0, 10),
)
def test_prefixed_draw_equals_uniform(seed, key, split):
    # the simulator's keys have 1 (cooperation coin), 4 (fading) and 5
    # (link transmit) parts; longer keys are covered too
    split = min(split, len(key))
    prefix, suffix = key[:split], key[split:]
    draw = prefixed_uniform(seed, *prefix)
    assert draw(*suffix) == uniform(seed, *key)


@given(seed=st.integers(-(2**63), 2**63 - 1), packet=st.integers(0, 10**6))
def test_prefixed_draw_reuses_its_prefix(seed, packet):
    draw = prefixed_uniform(seed, 0x7B, packet)
    links = [(1, 0, 0), (2, 0, 0), (1, 0, 1), (1, 0, 0)]
    assert [draw(*link) for link in links] == [
        uniform(seed, 0x7B, packet, *link) for link in links
    ]


def test_top_u64_values_map_below_one():
    # u64 / 2**64 rounds to 1.0 for the top 2**10 values
    assert (2**64 - 2**10) / 2**64 == 1.0
    for top in (2**64 - 1, 2**64 - 2**10):
        assert rng._unit(top) == math.nextafter(1.0, 0.0)
    below = 2**64 - 2**10 - 1
    assert rng._unit(below) == below / 2**64 < 1.0
    assert rng._unit(0) == 0.0


def test_both_draws_go_through_the_conversion(monkeypatch):
    monkeypatch.setattr(rng, "_unit", lambda u64: -1.0)
    assert uniform(3, 4, 5) == -1.0
    assert prefixed_uniform(3, 4)(5) == -1.0
    assert prefixed_uniform(3, "a")(5) == -1.0


def test_fading_gain_is_finite_at_the_top_draw(monkeypatch):
    monkeypatch.setattr(rng, "_draw_u64", lambda seed, key: 2**64 - 1)
    gain = fading_gain(1, 2, 3, seed=4)
    assert math.isfinite(gain) and gain > 0
