from hypothesis import given, settings
from hypothesis import strategies as st

from coopmesh.rng import prefixed_uniform, uniform

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
