"""Cooperative relay selection.

A sender's relay is chosen in three stages: keep only lower-rank neighbors
(minus the default parent), apply the active routing class's eligibility
test, then score the survivors with a weighted rate and take the argmax.
Class A tests link quality (SINR on both cooperative legs), class B load
(active connections and children), class C path cost (ETX of the two legs
versus the direct link); best-effort pools candidates passing any test and
weighs all four terms equally.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .rpl_core import NodeState


class RoutingClass(Enum):
    CLASS_A = "a"
    CLASS_B = "b"
    CLASS_C = "c"
    BEST_EFFORT = "best_effort"


@dataclass(frozen=True)
class RateWeights:
    w_sinr: float
    w_traffic: float
    w_nch: float
    w_etx: float

    def __post_init__(self):
        total = self.w_sinr + self.w_traffic + self.w_nch + self.w_etx
        if abs(total - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if min(self.w_sinr, self.w_traffic, self.w_nch, self.w_etx) < 0:
            raise ValueError("weights must be nonnegative")


# presets realizing the "dominant term" intent of each class
WEIGHT_PRESETS: dict[RoutingClass, RateWeights] = {
    RoutingClass.CLASS_A: RateWeights(0.85, 0.05, 0.05, 0.05),
    RoutingClass.CLASS_B: RateWeights(0.05, 0.45, 0.45, 0.05),
    RoutingClass.CLASS_C: RateWeights(0.05, 0.05, 0.05, 0.85),
    RoutingClass.BEST_EFFORT: RateWeights(0.25, 0.25, 0.25, 0.25),
}


@dataclass(frozen=True)
class CandidateMetrics:
    relay: int
    sinr_s_r: float  # dB at the relay, sender transmitting
    sinr_r_d: float  # dB at the parent, relay transmitting
    sinr_s_d: float  # dB at the parent, sender transmitting
    nac_r: int
    nac_s: int
    nch_r: int
    nch_s: int
    etx_s_r: float
    etx_r_d: float
    etx_s_d: float


def filter_candidates_by_rank(
    sender: NodeState, neighbor_states: list[NodeState]
) -> set[int]:
    """Neighbors sitting strictly below the sender in the DAG, minus the
    default parent (the parent is the hop destination, not a relay)."""
    if not sender.joined:
        raise ValueError("sender must be joined")
    return {
        n.node_id
        for n in neighbor_states
        if n.joined and n.rank < sender.rank and n.node_id != sender.default_parent
    }


def eligible_class_a(m: CandidateMetrics) -> bool:
    return m.sinr_s_r > m.sinr_s_d and m.sinr_r_d > m.sinr_s_d


def eligible_class_b(m: CandidateMetrics) -> bool:
    return m.nac_r < m.nac_s and m.nch_r < m.nch_s


def eligible_class_c(m: CandidateMetrics) -> bool:
    return m.etx_s_d > m.etx_s_r + m.etx_r_d


def eligible(m: CandidateMetrics, routing_class: RoutingClass) -> bool:
    """Class-specific candidacy; best-effort admits anything passing at
    least one of the three tests."""
    if routing_class is RoutingClass.CLASS_A:
        return eligible_class_a(m)
    if routing_class is RoutingClass.CLASS_B:
        return eligible_class_b(m)
    if routing_class is RoutingClass.CLASS_C:
        return eligible_class_c(m)
    return eligible_class_a(m) or eligible_class_b(m) or eligible_class_c(m)


@dataclass(frozen=True)
class TermBounds:
    """Min/max of each rate term over a candidate set, for normalization."""

    sinr: tuple[float, float]
    traffic: tuple[float, float]
    nch: tuple[float, float]
    etx: tuple[float, float]


def term_bounds(candidates: list[CandidateMetrics]) -> TermBounds:
    if not candidates:
        raise ValueError("no candidates")
    sinr = [min(m.sinr_s_r, m.sinr_r_d) for m in candidates]
    traffic = [float(m.nac_r) for m in candidates]
    nch = [float(m.nch_r) for m in candidates]
    etx = [m.etx_s_r + m.etx_r_d for m in candidates]
    return TermBounds(
        (min(sinr), max(sinr)),
        (min(traffic), max(traffic)),
        (min(nch), max(nch)),
        (min(etx), max(etx)),
    )


def _norm(value: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    if hi <= lo:
        return 0.5  # degenerate spread
    return (value - lo) / (hi - lo)


def compute_rate(m: CandidateMetrics, w: RateWeights, bounds: TermBounds) -> float:
    """Weighted candidate score; every term is normalized into [0, 1] against
    the candidate set's spread before weighting. Load and cost terms enter
    negatively so smaller is better."""
    return (
        w.w_sinr * _norm(min(m.sinr_s_r, m.sinr_r_d), bounds.sinr)
        - w.w_traffic * _norm(float(m.nac_r), bounds.traffic)
        - w.w_nch * _norm(float(m.nch_r), bounds.nch)
        - w.w_etx * _norm(m.etx_s_r + m.etx_r_d, bounds.etx)
    )


def compute_rates(
    candidates: list[CandidateMetrics], w: RateWeights, bounds: TermBounds | None = None
) -> dict[int, float]:
    if not candidates:
        return {}
    if bounds is None:
        bounds = term_bounds(candidates)
    return {m.relay: compute_rate(m, w, bounds) for m in candidates}


def best_relay(rates: dict[int, float]) -> int | None:
    """Relay with the maximum rate; ties go to the lowest node id. No rates
    means the direct path is used."""
    if not rates:
        return None
    return min(rates, key=lambda relay: (-rates[relay], relay))


def select_relay(
    candidates: list[CandidateMetrics],
    w: RateWeights,
    bounds: TermBounds | None = None,
) -> int | None:
    """Candidate with the maximum rate, as best_relay picks it."""
    return best_relay(compute_rates(candidates, w, bounds))


def decide_use_relay(selected: int | None, p_coop: float, draw: float) -> bool:
    """Bernoulli(p_coop) choice to actually cooperate on a packet, given a
    uniform draw in [0, 1)."""
    if not 0.0 <= p_coop <= 1.0:
        raise ValueError("p_coop must be in [0, 1]")
    if selected is None:
        return False
    return draw < p_coop


def gather_metrics(
    sender: NodeState,
    relay_state: NodeState,
    parent: int,
    channel,
    etx_of,
    interferers: frozenset[int] = frozenset(),
    slot: int = 0,
    with_fading: bool = False,
) -> CandidateMetrics:
    """Assemble the per-candidate metrics a selection run needs.

    SINRs default to the fading-mean channel so choices stay stable between
    advertisement rounds; etx_of(a, b) supplies the current link estimate.
    """
    s, r = sender.node_id, relay_state.node_id
    clean = frozenset(t for t in interferers if t not in (s, r))
    return CandidateMetrics(
        relay=r,
        sinr_s_r=channel.compute_sinr(r, s, clean, slot, with_fading),
        sinr_r_d=channel.compute_sinr(parent, r, clean, slot, with_fading),
        sinr_s_d=channel.compute_sinr(parent, s, clean, slot, with_fading),
        nac_r=relay_state.active_connections,
        nac_s=sender.active_connections,
        nch_r=len(relay_state.children),
        nch_s=len(sender.children),
        etx_s_r=etx_of(s, r),
        etx_r_d=etx_of(r, parent),
        etx_s_d=etx_of(s, parent),
    )


def run_selection(
    sender: NodeState,
    states: dict[int, NodeState],
    channel,
    etx_of,
    routing_class: RoutingClass,
    weights: RateWeights | None = None,
    interferers: frozenset[int] = frozenset(),
    slot: int = 0,
    with_fading: bool = False,
) -> tuple[int | None, dict[int, float]]:
    """Full pipeline for one sender: rank filter, eligibility, rate argmax.

    Returns (selected relay or None, candidate rates for tracing).
    """
    if sender.default_parent is None:
        return None, {}
    parent = sender.default_parent
    neighbor_states = [states[n] for n in channel.neighbors(sender.node_id) if n in states]
    ranked = filter_candidates_by_rank(sender, neighbor_states)
    # a candidate must actually reach the hop destination for its second
    # cooperative leg to exist at all
    reachable = [r for r in sorted(ranked) if channel.link(r, parent).exists]
    metrics = [
        gather_metrics(
            sender, states[r], parent, channel, etx_of,
            interferers, slot, with_fading,
        )
        for r in reachable
    ]
    candidates = [m for m in metrics if eligible(m, routing_class)]
    w = weights if weights is not None else WEIGHT_PRESETS[routing_class]
    rates = compute_rates(candidates, w)
    return best_relay(rates), rates
