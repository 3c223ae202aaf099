import copy
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coopmesh.rpl_core import (
    EtxEstimate,
    NodeState,
    ParentEntry,
    TrickleState,
    compute_etx,
    compute_rank,
    dio_changes_nothing,
    process_dio,
    process_dis,
    select_default_parent,
    trickle_fire,
    update_children_and_connections,
)


def test_compute_etx_perfect_link():
    assert compute_etx(10, 10) == 1.0


def test_compute_etx_half_success():
    assert compute_etx(10, 5) == 2.0


def test_compute_etx_dead_link_uses_cap():
    assert compute_etx(8, 0) == 16.0
    assert compute_etx(8, 0, etx_max=32.0) == 32.0


def test_compute_etx_malformed_stats():
    with pytest.raises(ValueError, match="malformed-stats"):
        compute_etx(3, 5)


def test_compute_etx_matches_brute_force_on_random_pairs():
    rng = random.Random(1234)
    for _ in range(1000):
        attempts = rng.randint(1, 1000)
        successes = rng.randint(1, attempts)
        assert compute_etx(attempts, successes) == attempts / successes


def test_compute_rank_examples():
    assert compute_rank(0.0, 1.0) == 1.0
    assert compute_rank(1.0, 2.0) == 3.0


def test_compute_rank_strictly_above_parent():
    rng = random.Random(7)
    for _ in range(200):
        parent = rng.uniform(0, 30)
        etx = rng.uniform(1, 16)
        assert compute_rank(parent, etx) > parent


def test_select_default_parent_single():
    assert select_default_parent({4: ParentEntry(2.0, 1.5)}) == 4


def test_select_default_parent_minimizes_rank_plus_etx():
    # A: 1+3=4, B: 2+1=3 -> B wins
    parents = {1: ParentEntry(1.0, 3.0), 2: ParentEntry(2.0, 1.0)}
    assert select_default_parent(parents) == 2


def test_select_default_parent_tie_breaks_low_id():
    parents = {9: ParentEntry(2.0, 1.0), 4: ParentEntry(1.0, 2.0)}
    assert select_default_parent(parents) == 4


def test_select_default_parent_empty_raises():
    with pytest.raises(ValueError, match="no-parent"):
        select_default_parent({})


def test_process_dio_first_join():
    state = NodeState(5)
    assert process_dio(state, 0, 0.0, link_etx=1.2, hysteresis=0.5) is True
    assert state.joined
    assert state.rank == pytest.approx(1.2)
    assert state.default_parent == 0


def test_process_dio_within_hysteresis_ignored():
    state = NodeState(5)
    process_dio(state, 0, 0.0, link_etx=3.0, hysteresis=0.5)
    assert process_dio(state, 1, 1.0, link_etx=1.7, hysteresis=0.5) is False
    assert state.rank == pytest.approx(3.0)
    assert state.default_parent == 0
    # sender had lower rank, so it still lands in the parent set
    assert 1 in state.parent_set


def test_process_dio_strict_improvement_updates():
    state = NodeState(5)
    process_dio(state, 3, 4.0, link_etx=1.0, hysteresis=0.5)
    assert state.rank == pytest.approx(5.0)
    assert process_dio(state, 1, 1.0, link_etx=1.0, hysteresis=0.5) is True
    assert state.rank == pytest.approx(2.0)
    assert state.default_parent == 1
    # the old parent now sits above us and was pruned
    assert 3 not in state.parent_set


def test_process_dio_parent_cost_increase_propagates():
    state = NodeState(5)
    process_dio(state, 0, 0.0, link_etx=1.0, hysteresis=0.5)
    # the rank moves with the parent's cost, but the node keeps its parent
    assert process_dio(state, 0, 0.0, link_etx=2.5, hysteresis=0.5) is False
    assert state.rank == pytest.approx(2.5)
    assert state.default_parent == 0


def test_process_dio_parent_climbing_above_us_forces_reselect():
    state = NodeState(5)
    process_dio(state, 2, 1.0, link_etx=1.0, hysteresis=0.5)  # rank 2
    process_dio(state, 7, 1.4, link_etx=1.0, hysteresis=0.5)  # backup entry
    assert process_dio(state, 2, 9.0, link_etx=1.0, hysteresis=0.5) is True
    assert 2 not in state.parent_set
    assert state.default_parent == 7
    assert state.rank == pytest.approx(2.4)


def test_process_dio_parent_climbing_with_no_backup_detaches():
    state = NodeState(5)
    process_dio(state, 2, 1.0, link_etx=1.0, hysteresis=0.5)  # rank 2
    assert process_dio(state, 2, 9.0, link_etx=1.0, hysteresis=0.5) is True
    assert not state.joined
    assert state.default_parent is None
    assert state.parent_set == {}


# (sender, advertised rank, link ETX) of a DIO
dios = st.tuples(
    st.integers(0, 6),
    st.floats(min_value=0.0, max_value=40.0),
    st.floats(min_value=1.0, max_value=16.0),
)


@settings(max_examples=300, deadline=None)
@given(
    history=st.lists(dios, min_size=1, max_size=8),
    sender=st.integers(0, 6),
    offset=st.floats(min_value=-20.0, max_value=20.0),
    link_etx=st.floats(min_value=1.0, max_value=16.0),
    hysteresis=st.floats(min_value=0.0, max_value=5.0),
)
def test_dio_from_a_non_parent_not_below_us_changes_nothing(
    history, sender, offset, link_etx, hysteresis
):
    # dio_changes_nothing is the rule the event loop skips process_dio by;
    # a negative offset advertises a rank below the receiver's, which a
    # sound rule never skips
    state = NodeState(9)
    for s, rank, etx in history:
        process_dio(state, s, rank, etx, hysteresis)
    rank = (state.rank or 0.0) + offset
    assume(dio_changes_nothing(state, sender, rank))
    before = copy.deepcopy(state)
    assert process_dio(state, sender, rank, link_etx, hysteresis) is False
    assert state.rank == before.rank
    assert state.default_parent == before.default_parent
    assert state.parent_set == before.parent_set


@settings(max_examples=300, deadline=None)
@given(
    history=st.lists(dios, min_size=1, max_size=12),
    hysteresis=st.floats(min_value=0.0, max_value=5.0),
)
def test_parent_set_invariants_hold_after_every_dio(history, hysteresis):
    state = NodeState(9)
    for sender, rank, etx in history:
        process_dio(state, sender, rank, etx, hysteresis)
        assert state.joined == (state.default_parent is not None)
        if not state.joined:
            assert state.parent_set == {}
            continue
        for node, entry in state.parent_set.items():
            assert entry.rank < state.rank or node == state.default_parent
        assert state.default_parent in state.parent_set
        assert state.rank == state.parent_set[state.default_parent].cost


# RFC 6206's example values: at most 8 doublings, k = 10
MAX_DOUBLINGS = 8
REDUNDANCY_K = 10


def fire(trickle):
    return trickle_fire(trickle, REDUNDANCY_K, MAX_DOUBLINGS)


def test_trickle_consistent_doubles_interval():
    t = TrickleState()
    assert fire(t) is True
    assert t.doublings == 1


def test_trickle_inconsistent_resets_and_emits():
    # an inconsistency reaches the timer as process_dis: back to the
    # minimum interval, counter cleared, so the next fire emits even after
    # a suppressed interval
    t = TrickleState(doublings=6)
    for _ in range(REDUNDANCY_K):
        t.counter += 1  # a consistent DIO heard
    process_dis(t)
    assert (t.doublings, t.counter) == (0, 0)
    assert fire(t) is True
    assert t.doublings == 1


def test_trickle_suppression_with_saturated_counter():
    t = TrickleState()
    for _ in range(REDUNDANCY_K):
        t.counter += 1  # a consistent DIO heard
    assert fire(t) is False
    assert t.doublings == 1
    assert t.counter == 0


def test_trickle_interval_stays_bounded():
    t = TrickleState()
    for expected in [*range(1, MAX_DOUBLINGS + 1), *[MAX_DOUBLINGS] * 12]:
        fire(t)
        assert t.doublings == expected
    # a timer that never doubles stays at its minimum
    flat = TrickleState()
    trickle_fire(flat, REDUNDANCY_K, 0)
    assert flat.doublings == 0


def test_dis_emission_and_trickle_reset_on_receipt():
    receiver = TrickleState(doublings=5, counter=5, seq=3)
    process_dis(receiver)
    assert (receiver.doublings, receiver.counter) == (0, 0)
    assert receiver.seq == 3  # the run renumbers the fire it queues


def _joined(node_id, rank, parent):
    state = NodeState(node_id, rank=rank, default_parent=parent)
    if parent is not None:
        state.parent_set = {parent: ParentEntry(rank - 1.0, 1.0)}
    return state


def test_children_and_connections_chain():
    # A(2) -> B(1) -> gateway(0)
    states = {
        0: NodeState(0, rank=0.0),
        1: _joined(1, 1.0, 0),
        2: _joined(2, 2.0, 1),
    }
    update_children_and_connections(states)
    assert states[1].children == {2}
    assert states[1].active_connections == 1
    assert states[2].children == set()
    assert states[2].active_connections == 0  # leaf is never intermediate
    assert states[0].children == {1}


def test_children_star_topology():
    states = {0: NodeState(0, rank=0.0), 1: _joined(1, 1.0, 0)}
    for leaf in range(2, 7):
        states[leaf] = _joined(leaf, 2.0, 1)
    update_children_and_connections(states)
    assert states[1].children == set(range(2, 7))
    assert states[1].active_connections == 5
    total_children = sum(len(s.children) for s in states.values())
    joined_non_gateway = sum(1 for s in states.values() if s.joined and s.node_id != 0)
    assert total_children == joined_non_gateway


def test_etx_estimate_ewma_moves_toward_observations():
    est = EtxEstimate(etx=1.0)
    est.observe(4, 1, etx_max=16.0)  # sample 4.0
    assert est.etx == pytest.approx(0.7 * 1.0 + 0.3 * 4.0)
    est2 = EtxEstimate(etx=2.0)
    for _ in range(50):
        est2.observe(1, 1, etx_max=16.0)
    assert est2.etx == pytest.approx(1.0, abs=1e-6)


def test_etx_estimate_capped_at_max():
    est = EtxEstimate(etx=15.0)
    for _ in range(10):
        est.observe(5, 0, etx_max=16.0)
    assert est.etx <= 16.0
