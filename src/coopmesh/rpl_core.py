"""RPL control plane: DAG construction and maintenance.

Nodes learn parents from DIO advertisements, keep an additive ETX-based rank
(gateway = 0), pick the default parent minimizing parent_rank + link_etx, and
pace their own DIOs with a trickle timer. Traffic flows upward only, so a
DAO is an advertisement with no downward route table behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

ETX_MAX_DEFAULT = 16.0
EWMA_ALPHA = 0.3


@dataclass(slots=True)
class TrickleState:
    """One node's DIO timer (RFC 6206): its interval is Imin doubled
    doublings times, in the slots the run's config gives each level. seq
    numbers the scheduled fire, so a reset can supersede the one queued."""

    doublings: int = 0
    counter: int = 0  # consistent DIOs heard this interval
    seq: int = 0


DEAD_LINK_WINDOW = 8  # consecutive failed attempts before sampling etx_max


@dataclass(slots=True)
class EtxEstimate:
    """Per-link ETX: seeded from the channel, updated by an EWMA once data
    flows.

    Attempts accumulate until a success closes a sample (attempts per
    delivery); a run of DEAD_LINK_WINDOW failures without any success closes
    one at etx_max instead, so a single missed burst cannot crater a link
    whose broadcast was in fact overheard elsewhere.
    """

    etx: float
    pending_attempts: int = 0

    def observe(self, attempts: int, successes: int, etx_max: float):
        if attempts < successes or successes < 0:
            raise ValueError("malformed-stats")
        self.pending_attempts += attempts
        if successes > 0:
            sample = compute_etx(self.pending_attempts, successes, etx_max)
        elif self.pending_attempts >= DEAD_LINK_WINDOW:
            sample = etx_max
        else:
            return
        self.pending_attempts = 0
        etx = (1.0 - EWMA_ALPHA) * self.etx + EWMA_ALPHA * sample
        # min(etx_max, etx) without the call: the same value, ties and NaN included
        self.etx = etx if etx < etx_max else etx_max


class ParentEntry(NamedTuple):
    rank: float  # parent's advertised rank
    etx: float  # our link to it

    @property
    def cost(self) -> float:
        return self.rank + self.etx


# builds a ParentEntry as ParentEntry._make does, without its length check or
# the Python-level __new__ a positional call runs
_new_tuple = tuple.__new__


@dataclass(slots=True)
class NodeState:
    node_id: int
    rank: float | None = None  # None until joined; gateway starts at 0
    parent_set: dict[int, ParentEntry] = field(default_factory=dict)
    default_parent: int | None = None
    children: set[int] = field(default_factory=set)
    active_connections: int = 0
    last_dio_slot: int | None = None

    @property
    def joined(self) -> bool:
        return self.rank is not None


def compute_etx(attempts: int, successes: int, etx_max: float = ETX_MAX_DEFAULT) -> float:
    """ETX = attempts / successes; links with no successes get etx_max."""
    if attempts < successes or successes < 0:
        raise ValueError("malformed-stats")
    if successes == 0:
        return etx_max
    return attempts / successes


def compute_rank(parent_rank: float, link_etx: float) -> float:
    if link_etx < 1.0:
        raise ValueError("link_etx must be >= 1")
    return parent_rank + link_etx


def select_default_parent(parent_set: dict[int, ParentEntry]) -> int:
    """Parent minimizing advertised rank + link ETX; ties to the lowest id."""
    if not parent_set:
        raise ValueError("no-parent")
    return min(parent_set, key=lambda n: (parent_set[n].cost, n))


def _prune_parent_set(state: NodeState) -> None:
    """Keep the entries ranked below the node, plus its default parent."""
    rank, keep = state.rank, state.default_parent
    state.parent_set = {n: e for n, e in state.parent_set.items() if e.rank < rank or n == keep}


def _adopt_best_parent(state: NodeState) -> None:
    best = select_default_parent(state.parent_set)
    state.default_parent = best
    state.rank = state.parent_set[best].cost
    _prune_parent_set(state)


def process_dio(
    state: NodeState,
    sender: int,
    rank: float,
    link_etx: float,
    hysteresis: float,
) -> bool:
    """Absorb a neighbor's DIO; return whether it joined, moved or detached
    the receiver.

    Unjoined nodes join through the sender. Joined nodes switch position only
    when the candidate rank beats the current one by more than the hysteresis
    margin; otherwise the DIO is ignored, though the sender is still recorded
    (or refreshed) in the parent set whenever its rank is below ours. A
    refresh that touches the current default parent re-derives our own rank,
    so cost increases still propagate.
    """
    if state.rank is None:  # not joined
        state.parent_set[sender] = _new_tuple(ParentEntry, (rank, link_etx))
        _adopt_best_parent(state)
        return True

    candidate = compute_rank(rank, link_etx)
    is_parent = sender == state.default_parent

    if rank < state.rank:
        state.parent_set[sender] = _new_tuple(ParentEntry, (rank, link_etx))
    elif is_parent:
        # our default parent climbed to or above our own position: unusable
        state.parent_set.pop(sender, None)
        state.default_parent = None
        _prune_parent_set(state)
        if state.parent_set:
            _adopt_best_parent(state)
        else:
            state.rank = None
        return True

    if candidate < state.rank - hysteresis:
        _adopt_best_parent(state)
        return True

    if is_parent:
        # same position, refreshed cost: rank increases must still propagate.
        # Every other entry already ranks below the old rank, so only a fall
        # can leave one to prune
        old_rank = state.rank
        state.rank = state.parent_set[sender].cost
        if state.rank < old_rank:
            _prune_parent_set(state)
    return False


def dio_changes_nothing(state: NodeState, sender: int, rank: float) -> bool:
    """Whether process_dio would leave state as it is for a DIO from sender
    advertising rank: the node is joined, does not route through sender,
    and sits at or below rank, which plus a link ETX >= 1 cannot beat its
    own."""
    return state.rank is not None and state.rank <= rank and state.default_parent != sender


def trickle_fire(trickle: TrickleState, redundancy_k: int, max_doublings: int) -> bool:
    """Advance the trickle timer at interval expiry; return whether to emit.

    The interval doubles, up to max_doublings levels above the minimum, and
    the node emits only while fewer than redundancy_k consistent messages
    were heard; an inconsistency resets the timer through process_dis instead.
    """
    emit = trickle.counter < redundancy_k
    trickle.doublings = min(trickle.doublings + 1, max_doublings)
    trickle.counter = 0
    return emit


def process_dis(trickle: TrickleState) -> None:
    """A solicitation resets the receiver's trickle so a DIO follows promptly."""
    trickle.doublings = 0
    trickle.counter = 0


def update_children_and_connections(states: dict[int, NodeState]) -> None:
    """Recompute children sets and active-connection counts from parents.

    children(n) = nodes whose default parent is n; active_connections(n) =
    number of installed source-to-gateway default paths where n appears as an
    intermediate hop. A run keeps both current at each parent switch, walking
    ancestor_chain, and rebuilds them here only when a switch opens or closes
    a cycle of default parents.
    """
    for st in states.values():
        st.children = set()
        st.active_connections = 0
    for st in states.values():
        if st.default_parent is not None:
            states[st.default_parent].children.add(st.node_id)
    gateway = min(states)
    for st in states.values():
        if st.node_id == gateway or not st.joined:
            continue
        hop = st.default_parent
        seen = {st.node_id}
        while hop is not None and hop != gateway and hop not in seen:
            seen.add(hop)
            states[hop].active_connections += 1
            hop = states[hop].default_parent


def ancestor_chain(
    states: dict[int, NodeState], hop: int | None, node: int, gateway: int
) -> list[int] | None:
    """The nodes update_children_and_connections' walk from node counts when
    node's default parent is hop: hop, its default parent and so on, up to
    the gateway, None or a node already passed, each excluded. None when the
    walk comes back to node itself, which then sits on a cycle of default
    parents."""
    chain: list[int] = []
    seen = {node}
    while hop is not None and hop != gateway and hop not in seen:
        seen.add(hop)
        chain.append(hop)
        hop = states[hop].default_parent
    return None if hop == node else chain
